package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/codecache"
	"schedfilter/internal/core"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/obs"
	"schedfilter/internal/sched"
	"schedfilter/internal/sim"
)

// perLayer lists the per-layer metrics a traced run reports, with their
// units. Layers are the repository's modules. A layer a workload does not
// exercise reads 0 on that workload.
var perLayer = []struct{ name, unit string }{
	{"server.queue_wait_us", "us"},
	{"server.untraced_us", "us"},
	{"jolt.lex_us", "us"},
	{"jolt.parse_us", "us"},
	{"jolt.check_us", "us"},
	{"jolt.codegen_us", "us"},
	{"jolt.verify_us", "us"},
	{"jolt.tokens", "count"},
	{"jolt.bytecode_instrs", "count"},
	{"jolt.alloc_kb", "KB"},
	{"jit.inline_us", "us"},
	{"jit.compile_us", "us"},
	{"jit.machine_instrs", "count"},
	{"jit.blocks", "count"},
	{"jit.alloc_kb", "KB"},
	{"policy.decide_us", "us"},
	{"policy.blocks_ls", "count"},
	{"policy.blocks_ns", "count"},
	{"codecache.lookup_us", "us"},
	{"codecache.program_key_us", "us"},
	{"codecache.hits", "count"},
	{"codecache.misses", "count"},
	{"sched.dag_build_us", "us"},
	{"sched.list_schedule_us", "us"},
	{"machine.estimator_us", "us"},
	{"sched.dag_edges", "count"},
	{"sched.blocks_changed", "count"},
	{"sched.alloc_kb", "KB"},
	{"sim.new_state_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.dyn_instrs", "count"},
	{"sim.minstr_per_s", "Minstr/s"},
	{"sim.alloc_mb", "MB"},
	{"training.collect_s", "s"},
	{"training.records", "count"},
	{"ripper.induce_s", "s"},
	{"ripper.rules", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.replay_ms_per_op", "ms"},
}

// tracer times each layer of a traced operation from outside, by calling
// the layer's public stage functions, and keeps the spans in memory until
// the run ends.
type tracer struct {
	start time.Time
	op    int           // current traced operation, 1-based; 0 during set-up
	lat   time.Duration // client latency of the current operation
	// sums and counts accumulate per-unit figures: a metric's value is
	// its sum over the units (operations, or compiled programs for a
	// set-up stage) that recorded it, divided by their number.
	sums   map[string]float64
	counts map[string]int
	// setup holds one value per set-up repetition; the median is
	// reported.
	setup map[string][]float64
	spans []span
}

// span is one timed layer boundary. Start is nanoseconds since the run
// began, or -1 for spans taken from the server's own trace (which carry
// durations only).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

func newTracer() *tracer {
	return &tracer{
		start:  time.Now(),
		sums:   map[string]float64{},
		counts: map[string]int{},
		setup:  map[string][]float64{},
	}
}

// beginOp starts the replay of the next traced operation, whose client
// latency was lat.
func (t *tracer) beginOp(lat time.Duration) {
	t.op++
	t.lat = lat
	t.spans = append(t.spans, span{t.op, "op", "", -1, lat.Nanoseconds()})
}

func (t *tracer) add(name string, v float64) {
	t.sums[name] += v
	t.counts[name]++
}

func (t *tracer) addSetup(name string, v float64) { t.setup[name] = append(t.setup[name], v) }

// timed runs f as the span name (child of parent) and returns its
// duration in microseconds.
func (t *tracer) timed(name, parent string, f func()) float64 {
	s := time.Now()
	f()
	d := time.Since(s)
	t.spans = append(t.spans, span{t.op, name, parent, s.Sub(t.start).Nanoseconds(), d.Nanoseconds()})
	return float64(d.Nanoseconds()) / 1e3
}

// serverSpans records the layers the server's own trace covers: queue
// wait, the block-cache probe, and what no span covers.
func (t *tracer) serverSpans(info *obs.TraceInfo, hits, misses int) {
	var covered int64
	for _, s := range info.Spans {
		covered += s.Ns
		t.spans = append(t.spans, span{t.op, "server." + s.Phase, "op", -1, s.Ns})
	}
	t.add("server.queue_wait_us", float64(info.SpanNs(obs.PhaseQueueWait))/1e3)
	t.add("server.untraced_us", float64(t.lat.Nanoseconds()-covered)/1e3)
	t.add("codecache.lookup_us", float64(info.SpanNs(obs.PhaseCacheLookup))/1e3)
	t.add("codecache.hits", float64(hits))
	t.add("codecache.misses", float64(misses))
}

// sink keeps replayed results alive so no stage call is optimized away.
var sink any

// frontEnd replays the Jolt front end on src: lex, parse (with the unroll
// pass when unroll >= 2), check, code generation and verification.
// Parse lexes again internally, so parse_us is Parse's time less lex_us.
func (t *tracer) frontEnd(src string, unroll int) (*bytecode.Module, error) {
	var err error
	var toks []jolt.Token
	var prog *jolt.Program
	var info *jolt.Info
	var mod *bytecode.Module
	a0 := allocBytes()
	lex := t.timed("jolt.lex", "replay", func() { toks, err = jolt.Lex(src) })
	if err != nil {
		return nil, err
	}
	parse := t.timed("jolt.parse", "replay", func() {
		if prog, err = jolt.Parse(src); err == nil && unroll >= 2 {
			jolt.Unroll(prog, unroll)
		}
	})
	if err != nil {
		return nil, err
	}
	check := t.timed("jolt.check", "replay", func() { info, err = jolt.Check(prog) })
	if err != nil {
		return nil, err
	}
	gen := t.timed("jolt.codegen", "replay", func() { mod, err = jolt.Generate(prog, info) })
	if err != nil {
		return nil, err
	}
	verify := t.timed("jolt.verify", "replay", func() { err = bytecode.Verify(mod) })
	if err != nil {
		return nil, err
	}
	alloc := allocBytes() - a0
	instrs := 0
	for _, f := range mod.Fns {
		instrs += len(f.Code)
	}
	t.add("jolt.lex_us", lex)
	t.add("jolt.parse_us", max(parse-lex, 0))
	t.add("jolt.check_us", check)
	t.add("jolt.codegen_us", gen)
	t.add("jolt.verify_us", verify)
	t.add("jolt.tokens", float64(len(toks)))
	t.add("jolt.bytecode_instrs", float64(instrs))
	t.add("jolt.alloc_kb", float64(alloc)/1024)
	return mod, nil
}

// jitCompile replays the JIT: inlining on a copy of the module, then the
// rest of compilation (CFG, lowering, register allocation) with inlining
// off, which yields the same machine code as one jit.Compile call.
func (t *tracer) jitCompile(mod *bytecode.Module, opts jit.Options) (*ir.Program, error) {
	var prog *ir.Program
	var err error
	a0 := allocBytes()
	work := mod.Clone()
	inline := t.timed("jit.inline", "replay", func() {
		if opts.Inline {
			lim := opts.InlineLimits
			if lim.MaxCalleeSize == 0 {
				lim = jit.DefaultInlineLimits()
			}
			jit.Inline(work, lim)
		}
	})
	rest := opts
	rest.Inline = false
	compile := t.timed("jit.compile", "replay", func() { prog, err = jit.Compile(work, rest) })
	if err != nil {
		return nil, err
	}
	t.add("jit.inline_us", inline)
	t.add("jit.compile_us", compile)
	t.add("jit.machine_instrs", float64(prog.NumInstrs()))
	t.add("jit.blocks", float64(prog.NumBlocks()))
	t.add("jit.alloc_kb", float64(allocBytes()-a0)/1024)
	return prog, nil
}

// decide replays the policy layer: feature extraction plus the decision
// for every block, short-circuited for the fixed protocols exactly as the
// scheduling pass does (NS decides nothing, LS extracts no features).
func (t *tracer) decide(prog *ir.Program, f core.Filter) []bool {
	var out []bool
	_, always := f.(core.Always)
	_, never := f.(core.Never)
	us := t.timed("policy.decide", "replay", func() {
		for _, fn := range prog.Fns {
			for _, b := range fn.Blocks {
				switch {
				case never:
					out = append(out, false)
				case always:
					out = append(out, true)
				default:
					yes, _ := f.Decide(features.ExtractBlock(b))
					out = append(out, yes)
				}
			}
		}
	})
	ls := 0
	for _, d := range out {
		if d {
			ls++
		}
	}
	t.add("policy.decide_us", us)
	t.add("policy.blocks_ls", float64(ls))
	t.add("policy.blocks_ns", float64(len(out)-ls))
	return out
}

// programKey replays the server's whole-program fingerprint.
func (t *tracer) programKey(m *machine.Model, f core.Filter, prog *ir.Program) {
	t.add("codecache.program_key_us", t.timed("codecache.program_key", "replay", func() {
		sink = codecache.ProgramKey(m.Name, core.FilterID(f), prog)
	}))
}

// schedule replays fresh, cache-free list scheduling of the approved
// blocks, in place: DAG build, list scheduling, and the estimator on the
// original and the scheduled order.
func (t *tracer) schedule(m *machine.Model, prog *ir.Program, approved []bool) {
	var build, list, est float64
	edges, changed := 0, 0
	a0 := allocBytes()
	i := 0
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			ok := approved[i]
			i++
			if !ok {
				continue
			}
			var dag *sched.DAG
			var res sched.Result
			build += t.timed("sched.dag_build", "replay", func() { dag = sched.BuildDAG(m, b.Instrs) })
			list += t.timed("sched.list_schedule", "replay", func() { res = sched.ScheduleDAG(m, b.Instrs, dag) })
			scheduled := res.Apply(b.Instrs)
			est += t.timed("machine.estimator", "replay", func() {
				sink = machine.EstimateCost(m, b.Instrs) + machine.EstimateCost(m, scheduled)
			})
			edges += dag.NumEdges()
			if res.Changed {
				changed++
			}
			b.Instrs = scheduled
		}
	}
	t.add("sched.dag_build_us", build)
	t.add("sched.list_schedule_us", list)
	t.add("machine.estimator_us", est)
	t.add("sched.dag_edges", float64(edges))
	t.add("sched.blocks_changed", float64(changed))
	t.add("sched.alloc_kb", float64(allocBytes()-a0)/1024)
}

// simulate replays the timed simulator run: a fresh machine state, timed
// on its own just before, then sim.Run, which builds its own state.
// minstr_per_s is simulated instructions per second of sim.Run, state
// set-up included.
func (t *tracer) simulate(m *machine.Model, prog *ir.Program) (*sim.Result, error) {
	var res *sim.Result
	var err error
	newState := t.timed("sim.new_state", "replay", func() { sink = sim.NewState(0) })
	sink = nil
	a0 := allocBytes()
	runUs := t.timed("sim.run", "replay", func() { res, err = sim.Run(prog, sim.Config{Timed: true, Model: m}) })
	alloc := allocBytes() - a0
	if err != nil {
		return nil, err
	}
	t.add("sim.new_state_us", newState)
	t.add("sim.run_ms", runUs/1e3)
	t.add("sim.dyn_instrs", float64(res.DynInstrs))
	t.add("sim.run_us", runUs)
	t.add("sim.alloc_mb", float64(alloc)/1e6)
	return res, nil
}

// metrics computes the per-layer metrics of a traced run. Its first
// 2*tracedRounds rounds alternate plain and traced; trace.overhead_pct
// compares the operations of those traced rounds with the plain ones
// between them. replay is the time spent replaying.
func (t *tracer) metrics(samples []sample, tracedRounds int, replay time.Duration) map[string]metric {
	out := map[string]metric{}
	for _, pl := range perLayer {
		v := 0.0
		if vals, ok := t.setup[pl.name]; ok {
			v = median(vals)
		} else if n := t.counts[pl.name]; n > 0 {
			v = t.sums[pl.name] / float64(n)
		}
		out[pl.name] = metric{v, pl.unit}
	}
	if us := t.sums["sim.run_us"]; us > 0 {
		out["sim.minstr_per_s"] = metric{t.sums["sim.dyn_instrs"] / us, "Minstr/s"}
	}
	var plain, traced []float64
	for _, s := range samples {
		switch {
		case s.traced:
			traced = append(traced, ms(s.lat))
		case s.round < 2*tracedRounds:
			plain = append(plain, ms(s.lat))
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		out["trace.overhead_pct"] = metric{(median(traced)/median(plain) - 1) * 100, "%"}
		out["trace.replay_ms_per_op"] = metric{ms(replay) / float64(len(traced)), "ms"}
	}
	return out
}

// writeSpans writes the run's spans, one JSON object a line, to
// dir/spans-<workload>.jsonl.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s.jsonl", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
