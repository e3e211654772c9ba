package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"schedfilter/internal/core"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/server"
	"schedfilter/internal/sim"
	"schedfilter/internal/workloads"
)

// The benchmark runs from the root of a checkout; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func bootForTest(t *testing.T) *service {
	t.Helper()
	svc, err := bootService()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.close)
	return svc
}

func TestScheduleCheckRejectsCorruption(t *testing.T) {
	svc := bootForTest(t)
	f, err := loadFactoryModel()
	if err != nil {
		t.Fatal(err)
	}
	wl := workloads.ByName("compress")
	want, err := wantSchedule(svc.model, f, wl.Source, svc.jit)
	if err != nil {
		t.Fatal(err)
	}
	body, err := svc.post("/v1/schedule", mustJSON(server.ScheduleRequest{ProgramInput: server.ProgramInput{Source: wl.Source}}))
	if err != nil {
		t.Fatal(err)
	}
	var resp server.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(&resp, want); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	if want.approved == 0 || want.costBefore == want.costAfter {
		t.Fatalf("program too easy for the check: %+v", want)
	}
	corrupt := map[string]func(r *server.ScheduleResponse){
		"blocks":            func(r *server.ScheduleResponse) { r.Blocks++ },
		"not_scheduled":     func(r *server.ScheduleResponse) { r.NotScheduled-- },
		"scheduled swapped": func(r *server.ScheduleResponse) { r.Scheduled++; r.NotScheduled-- },
		"cost_before":       func(r *server.ScheduleResponse) { r.CostBefore++ },
		"cost_after":        func(r *server.ScheduleResponse) { r.CostAfter = r.CostBefore },
	}
	for name, c := range corrupt {
		bad := resp
		c(&bad)
		if checkSchedule(&bad, want) == nil {
			t.Errorf("%s corrupted: accepted", name)
		}
	}
}

func TestRunCheckRejectsCorruption(t *testing.T) {
	svc := bootForTest(t)
	var src string
	for seed := int64(1); ; seed++ {
		src = generateProgram(seed)
		if strings.Contains(src, "print(") {
			break
		}
	}
	want, err := wantRun(src)
	if err != nil {
		t.Fatal(err)
	}
	body, err := svc.post("/v1/execute", mustJSON(server.ExecuteRequest{ProgramInput: server.ProgramInput{Source: src}}))
	if err != nil {
		t.Fatal(err)
	}
	var resp server.ExecuteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if err := checkRun(resp.Ret, resp.Output, want); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	if len(resp.Output) == 0 {
		t.Fatal("program printed nothing")
	}
	if checkRun(resp.Ret+1, resp.Output, want) == nil {
		t.Error("wrong ret accepted")
	}
	if checkRun(resp.Ret, resp.Output[1:], want) == nil {
		t.Error("missing output line accepted")
	}
	changed := append([]string(nil), resp.Output...)
	changed[0] += "0"
	if checkRun(resp.Ret, changed, want) == nil {
		t.Error("changed output line accepted")
	}
}

func TestSameWorkRejectsCorruption(t *testing.T) {
	m := machine.Default().Model
	wl := workloads.ByName("compress")
	mod, err := wl.CompileWithOptions(jolt.Options{UnrollFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := jit.Compile(mod, jit.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := newSameWork()
	var runs []*sim.Result
	for pol, f := range []core.Filter{core.Never{}, core.Always{}} {
		prog := base.Clone()
		core.ApplyFilter(m, prog, f)
		res, err := sim.Run(prog, sim.Config{Timed: true, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.check(0, pol, res.DynInstrs, res.Ret, res.Cycles); err != nil {
			t.Fatalf("correct run rejected: %v", err)
		}
		runs = append(runs, res)
	}
	ls := runs[1]
	if s.check(0, 2, ls.DynInstrs+1, ls.Ret, ls.Cycles) == nil {
		t.Error("different dyn_instrs accepted")
	}
	if s.check(0, 2, ls.DynInstrs, ls.Ret^1, ls.Cycles) == nil {
		t.Error("different ret accepted")
	}
	if s.check(0, 1, ls.DynInstrs, ls.Ret, ls.Cycles+1) == nil {
		t.Error("different cycles for a repeated (program, policy) accepted")
	}
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	for r := 0; r < 5; r++ {
		for _, gs := range uniqueSeeds(7, r) {
			src := generateProgram(gs)
			mod, err := jolt.Compile(src)
			if err != nil {
				t.Fatalf("program %d: front end rejected a generated program: %v\n%s", gs, err, src)
			}
			if _, err := interpret(mod); err != nil {
				t.Fatalf("program %d: interpreter: %v\n%s", gs, err, src)
			}
			if _, err := jit.Compile(mod, jit.DefaultOptions()); err != nil {
				t.Fatalf("program %d: jit: %v\n%s", gs, err, src)
			}
		}
	}
}

// A block of execute-unique rounds holds each of its programs once, the
// same programs whatever the seed.
func TestUniqueBlocksRepeatNothing(t *testing.T) {
	sets := make([]map[int64]bool, 2)
	for i, seed := range []int64{1, 2} {
		sets[i] = map[int64]bool{}
		for r := 0; r < 2*uniqueBlockRounds; r++ {
			for _, gs := range uniqueSeeds(seed, r) {
				if sets[i][gs] {
					t.Fatalf("seed %d round %d: program %d repeats", seed, r, gs)
				}
				sets[i][gs] = true
			}
		}
	}
	for gs := range sets[0] {
		if !sets[1][gs] {
			t.Fatalf("program %d is in seed 1's first blocks but not seed 2's", gs)
		}
	}
	if a, b := uniqueSeeds(1, 0), uniqueSeeds(2, 0); a[0] == b[0] && a[1] == b[1] {
		t.Errorf("seeds 1 and 2 start with the same programs %v", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

// The metrics a run prints are the ones BENCHMARK.json declares, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	samples := []sample{{round: 0, traced: false}, {round: 1, traced: true}}
	blocks := []block{{ops: 1}, {ops: 1}}
	for _, tc := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{endToEnd(samples, blocks, []float64{1}, 1), spec.EndToEnd},
		{newTracer().metrics(samples, 1, 0), spec.PerLayer},
	} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(tc.got), len(tc.want))
		}
		for _, m := range tc.want {
			if g, ok := tc.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: run reports %+v (present %v), BENCHMARK.json unit %q", m.Name, g, ok, m.Unit)
			}
		}
	}
}
