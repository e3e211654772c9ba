package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"schedfilter/internal/core"
	"schedfilter/internal/experiments"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/machine"
	"schedfilter/internal/server"
	"schedfilter/internal/sim"
	"schedfilter/internal/training"
	"schedfilter/internal/workloads"
)

// factoryModelPath is the filter schedserved embeds, read from the
// checkout the benchmark runs in.
const factoryModelPath = "cmd/schedserved/factory_model.txt"

func loadFactoryModel() (*core.Induced, error) {
	text, err := os.ReadFile(filepath.FromSlash(factoryModelPath))
	if err != nil {
		return nil, err
	}
	return core.ParseInduced(string(text))
}

// roundRand is the generator of round r of a run with the given seed.
func roundRand(seed int64, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
}

// service is the compile server booted as schedserved boots it: the
// factory model as the default policy on the default target.
type service struct {
	srv   *server.Server
	h     http.Handler
	model *machine.Model
	jit   jit.Options
}

func bootService() (*service, error) {
	f, err := loadFactoryModel()
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Filter: f})
	return &service{srv: srv, h: srv.Handler(), model: machine.Default().Model, jit: jit.DefaultOptions()}, nil
}

func (s *service) close() {
	if s != nil {
		s.srv.Close()
	}
}

// post calls the handler in process and returns the response body.
func (s *service) post(path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// --- schedule-repeat ---

// scheduleRepeat posts the 13 bundled programs as source text to
// /v1/schedule, in a seeded order per round, after a warm-up pass has
// filled the block cache.
type scheduleRepeat struct {
	seed   int64
	filter *core.Induced // the oracle's own copy of the factory model
	progs  []repeatProg
	svc    *service
}

type repeatProg struct {
	src  string
	body []byte
	want scheduleWant
}

func newScheduleRepeat(cfg config) (workload, error) {
	f, err := loadFactoryModel()
	if err != nil {
		return nil, err
	}
	w := &scheduleRepeat{seed: cfg.seed, filter: f}
	m := machine.Default().Model
	for _, wl := range workloads.All() {
		want, err := wantSchedule(m, f, wl.Source, jit.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		body := mustJSON(server.ScheduleRequest{ProgramInput: server.ProgramInput{Source: wl.Source}})
		w.progs = append(w.progs, repeatProg{wl.Source, body, want})
	}
	return w, nil
}

func (w *scheduleRepeat) setup(*tracer) error {
	svc, err := bootService()
	if err != nil {
		return err
	}
	w.svc = svc
	for _, p := range w.progs {
		if _, err := svc.post("/v1/schedule", p.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *scheduleRepeat) traceSetup(*tracer) error { return nil }

func (w *scheduleRepeat) close() { w.svc.close(); w.svc = nil }

func (w *scheduleRepeat) round(r int) ([]*operation, error) {
	order := roundRand(w.seed, r).Perm(len(w.progs))
	ops := make([]*operation, len(order))
	for i, pi := range order {
		p := &w.progs[pi]
		op := &operation{}
		var body []byte
		op.do = func() (err error) {
			body, err = w.svc.post("/v1/schedule", p.body)
			return err
		}
		var resp server.ScheduleResponse
		op.check = func() error {
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			op.cycles = resp.CostAfter
			return checkSchedule(&resp, p.want)
		}
		op.replay = func(tr *tracer) error {
			tr.serverSpans(resp.Trace, resp.CacheHits, resp.CacheMisses)
			_, err := w.svc.replayCompile(tr, p.src, w.filter)
			return err
		}
		ops[i] = op
	}
	return ops, nil
}

// replayCompile replays a compile-and-schedule request through the stage
// functions and returns the scheduled program.
func (s *service) replayCompile(tr *tracer, src string, f core.Filter) (*ir.Program, error) {
	mod, err := tr.frontEnd(src, 0)
	if err != nil {
		return nil, err
	}
	prog, err := tr.jitCompile(mod, s.jit)
	if err != nil {
		return nil, err
	}
	approved := tr.decide(prog, f)
	tr.programKey(s.model, f, prog)
	tr.schedule(s.model, prog, approved)
	return prog, nil
}

// --- execute-unique ---

// A run of execute-unique walks through blocks of uniqueBlockRounds
// rounds of uniquePerRound programs each. Block b holds the programs of
// generator seeds b*uniqueBlock ... (b+1)*uniqueBlock-1, in an order drawn
// from the run's seed, so no program repeats within a run, a block's
// programs are the same whatever the seed, and every run completes block 0.
const (
	uniquePerRound    = 6
	uniqueBlockRounds = 50
	uniqueBlock       = uniquePerRound * uniqueBlockRounds
)

// uniqueSeeds returns the generator seeds of round r.
func uniqueSeeds(seed int64, r int) []int64 {
	b := r / uniqueBlockRounds
	// The order comes from the generator of round -1-b, which no round
	// uses.
	perm := roundRand(seed, -1-b).Perm(uniqueBlock)
	at := (r % uniqueBlockRounds) * uniquePerRound
	out := make([]int64, uniquePerRound)
	for i := range out {
		out[i] = int64(b*uniqueBlock + perm[at+i])
	}
	return out
}

// executeUnique posts generated programs that never repeat to
// /v1/execute (timed simulation).
type executeUnique struct {
	seed   int64
	filter *core.Induced
	svc    *service
}

func newExecuteUnique(cfg config) (workload, error) {
	f, err := loadFactoryModel()
	if err != nil {
		return nil, err
	}
	return &executeUnique{seed: cfg.seed, filter: f}, nil
}

// executeWarmup is what set-up executes: one round's worth of programs
// from negative generator seeds, which no round draws.
var executeWarmup = func() [][]byte {
	var out [][]byte
	for i := 0; i < uniquePerRound; i++ {
		src := generateProgram(int64(-1 - i))
		out = append(out, mustJSON(server.ExecuteRequest{ProgramInput: server.ProgramInput{Source: src}}))
	}
	return out
}()

func (w *executeUnique) setup(*tracer) error {
	svc, err := bootService()
	if err != nil {
		return err
	}
	w.svc = svc
	for _, body := range executeWarmup {
		if _, err := svc.post("/v1/execute", body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *executeUnique) traceSetup(*tracer) error { return nil }

func (w *executeUnique) close() { w.svc.close(); w.svc = nil }

func (w *executeUnique) round(r int) ([]*operation, error) {
	seeds := uniqueSeeds(w.seed, r)
	ops := make([]*operation, len(seeds))
	for i, gs := range seeds {
		src := generateProgram(gs)
		want, err := wantRun(src)
		if err != nil {
			return nil, fmt.Errorf("program %d: interpreter: %w", gs, err)
		}
		reqBody := mustJSON(server.ExecuteRequest{ProgramInput: server.ProgramInput{Source: src}})
		op := &operation{}
		var body []byte
		op.do = func() (err error) {
			body, err = w.svc.post("/v1/execute", reqBody)
			return err
		}
		var resp server.ExecuteResponse
		op.check = func() error {
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			op.cycles = resp.Cycles
			return checkRun(resp.Ret, resp.Output, want)
		}
		op.replay = func(tr *tracer) error {
			tr.serverSpans(resp.Trace, resp.CacheHits, resp.CacheMisses)
			prog, err := w.svc.replayCompile(tr, src, w.filter)
			if err != nil {
				return err
			}
			res, err := tr.simulate(w.svc.model, prog)
			if err != nil {
				return err
			}
			if res.Cycles != resp.Cycles {
				return fmt.Errorf("replayed run took %d cycles, the server's %d", res.Cycles, resp.Cycles)
			}
			return nil
		}
		ops[i] = op
	}
	return ops, nil
}

// --- paper-eval ---

// evalThreshold is the paper's headline threshold, in percent.
const evalThreshold = 20

// paperEval runs the paper's application-time evaluation: each bundled
// program, compiled with the experiments' options, gets a scheduling pass
// under NS, LS or its leave-one-out filter and then runs on the timed
// simulator. No server, front end or JIT is in the timed loop.
type paperEval struct {
	seed    int64
	cfg     experiments.Config
	data    []*training.BenchData // workloads.All() order
	filters []*core.Induced       // leave-one-out filter per program
	same    *sameWork
}

// evalPolicies are the protocols of an evaluation pass; index 2 stands
// for the program's leave-one-out filter.
var evalPolicies = []string{"NS", "LS", "filter"}

func newPaperEval(cfg config) (workload, error) {
	c := experiments.DefaultConfig()
	c.Jobs = 1
	return &paperEval{seed: cfg.seed, cfg: c, same: newSameWork()}, nil
}

// setup collects training data and induces the leave-one-out filters at
// the paper's threshold, each within its own suite, as the experiment
// runner does, on one goroutine.
func (w *paperEval) setup(tr *tracer) error {
	all := workloads.All()
	collectStart := time.Now()
	data := make([]*training.BenchData, len(all))
	records := 0
	for i := range all {
		bd, err := training.Collect(&all[i], w.cfg.Model, w.cfg.CompileOpts)
		if err != nil {
			return err
		}
		data[i] = bd
		records += len(bd.Records)
	}
	collect := time.Since(collectStart)
	induceStart := time.Now()
	var labels training.LabelCache
	filters := make([]*core.Induced, len(all))
	rules := 0
	for i, wl := range all {
		var suite []*training.BenchData
		for _, bd := range data {
			if bd.Suite == wl.Suite {
				suite = append(suite, bd)
			}
		}
		filters[i] = training.LeaveOneOutCached(suite, wl.Name, evalThreshold, w.cfg.RipperOpts, &labels)
		rules += len(filters[i].Rules.Rules)
	}
	if tr != nil {
		tr.addSetup("training.collect_s", collect.Seconds())
		tr.addSetup("training.records", float64(records))
		tr.addSetup("ripper.induce_s", time.Since(induceStart).Seconds())
		tr.addSetup("ripper.rules", float64(rules))
	}
	w.data, w.filters = data, filters
	return nil
}

// traceSetup replays the set-up's front end and JIT over every program,
// with the experiments' compile options.
func (w *paperEval) traceSetup(tr *tracer) error {
	for _, wl := range workloads.All() {
		mod, err := tr.frontEnd(wl.Source, w.cfg.CompileOpts.Frontend.UnrollFactor)
		if err != nil {
			return err
		}
		if _, err := tr.jitCompile(mod, w.cfg.CompileOpts.JIT); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperEval) close() { w.data, w.filters = nil, nil }

func (w *paperEval) policy(prog, pol int) core.Filter {
	switch pol {
	case 0:
		return core.Never{}
	case 1:
		return core.Always{}
	}
	return w.filters[prog]
}

func (w *paperEval) round(r int) ([]*operation, error) {
	n := len(w.data) * len(evalPolicies)
	order := roundRand(w.seed, r).Perm(n)
	ops := make([]*operation, n)
	m := w.cfg.Model
	for i, pair := range order {
		pi, pol := pair/len(evalPolicies), pair%len(evalPolicies)
		f := w.policy(pi, pol)
		op := &operation{}
		var res *sim.Result
		op.do = func() error {
			prog := w.data[pi].Prog.Clone()
			core.ApplyFilter(m, prog, f)
			var err error
			res, err = sim.Run(prog, sim.Config{Timed: true, Model: m})
			return err
		}
		op.check = func() error {
			op.cycles = res.Cycles
			if err := w.same.check(pi, pol, res.DynInstrs, res.Ret, res.Cycles); err != nil {
				return fmt.Errorf("%s under %s: %w", w.data[pi].Name, evalPolicies[pol], err)
			}
			return nil
		}
		op.replay = func(tr *tracer) error {
			prog := w.data[pi].Prog.Clone()
			tr.schedule(m, prog, tr.decide(prog, f))
			got, err := tr.simulate(m, prog)
			if err != nil {
				return err
			}
			if got.Cycles != res.Cycles {
				return fmt.Errorf("%s under %s: replay took %d cycles, the run %d", w.data[pi].Name, evalPolicies[pol], got.Cycles, res.Cycles)
			}
			return nil
		}
		ops[i] = op
	}
	return ops, nil
}
