// Command perfbench is the repository's benchmark. One process, one
// closed-loop client: each operation is issued only after the previous
// one returns. The compile service is driven in process through
// internal/server's Handler (no sockets) and the paper's evaluation
// through the library's own functions.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//	perfbench compare [--bench BENCHMARK.json] DIR_A DIR_B
//
// A run prints a few "perfbench:" information lines and, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, taken from a traced run that replays each
// operation through the stage functions (see README.md). It is run from
// the root of a source checkout, through run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory the traced run writes its spans to
}

// workload is one system under test. Its constructor makes the seeded
// inputs and their oracle values (untimed); setup builds the system and
// is what setup_s times.
type workload interface {
	// setup builds the system under test. The benchmark calls it
	// setupReps times, closing the previous system in between, and keeps
	// the last. tr is non-nil in traced runs.
	setup(tr *tracer) error
	// round returns the operations of round r, with their inputs and
	// oracle values already made (untimed). Every round attempts the same
	// number of operations, so failures are the same share of attempts in
	// every run.
	round(r int) ([]*operation, error)
	// traceSetup records per-layer figures of the set-up that are not
	// part of setup itself (traced runs only; untimed).
	traceSetup(tr *tracer) error
	close()
}

// operation is one closed-loop operation of a round.
type operation struct {
	// do performs the operation; it is the only timed part. An error
	// means the operation failed.
	do func() error
	// check compares the operation's outputs with an oracle. It runs
	// after the round's last operation.
	check func() error
	// replay re-runs the operation's work through the stage functions,
	// timing each layer (traced rounds only, after the round).
	replay func(tr *tracer) error
	// cycles is the cycle count of the generated code the operation
	// produced, set by do or check.
	cycles int64
}

type workloadDef struct {
	name string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// tracedRounds is how many rounds a traced run replays.
	tracedRounds int
	// minRounds is how many rounds every run completes, however short its
	// --seconds. sim_cycles_per_op averages over them: they hold the same
	// operations whatever the seed, in a seeded order, so the metric
	// repeats exactly.
	minRounds int
	build     func(cfg config) (workload, error)
}

var workloadDefs = []workloadDef{
	{"schedule-repeat", 21, 40, 1, newScheduleRepeat},
	{"execute-unique", 21, 40, uniqueBlockRounds, newExecuteUnique},
	{"paper-eval", 5, 1, 1, newPaperEval},
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: schedule-repeat, execute-unique or paper-eval")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == cfg.workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := run(def, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one completed operation as the client saw it.
type sample struct {
	round  int
	traced bool
	lat    time.Duration
	cycles int64
	rss    int64 // resident set size after the operation
}

// block is one round's operations, run back to back.
type block struct {
	ops   int
	cpu   time.Duration // process user+sys CPU
	alloc uint64        // Go heap bytes allocated
}

func run(def *workloadDef, cfg config, stdout io.Writer) (*result, error) {
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "perfbench: host gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())

	w, err := def.build(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups := make([]float64, def.setupReps)
	for rep := range setups {
		if rep > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[rep] = time.Since(start).Seconds()
	}
	if tr != nil {
		if err := w.traceSetup(tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	runtime.GC()
	res := &result{Correct: true}
	var samples []sample
	var blocks []block
	var problems []string
	report := func(format string, args ...any) {
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	var replay time.Duration
	deadline := time.Duration(cfg.seconds) * time.Second
	begin := time.Now()
	// A traced run always completes one plain and one traced round.
	for r := 0; time.Since(begin) < deadline || r < def.minRounds || (tr != nil && r < 2); r++ {
		ops, err := w.round(r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		// A traced run alternates plain and traced rounds, so the
		// tracing overhead is measured within one process, and traces
		// only its first tracedRounds odd rounds, so its work counts do
		// not depend on how many rounds fit in the run.
		traced := tr != nil && r%2 == 1 && r < 2*def.tracedRounds
		// The round's operations run back to back, with nothing of the
		// benchmark's own in between but the clock and an allocation-free
		// RSS read, and process CPU and heap allocation are taken over the
		// whole block: work an operation leaves to the collector or to
		// other goroutines is counted too.
		errs := make([]error, len(ops))
		lats := make([]time.Duration, len(ops))
		rss := make([]int64, len(ops))
		cpu0, alloc0 := cpuTime(), allocBytes()
		for i, op := range ops {
			start := time.Now()
			errs[i] = op.do()
			lats[i] = time.Since(start)
			rss[i] = residentBytes()
		}
		blocks = append(blocks, block{len(ops), cpuTime() - cpu0, allocBytes() - alloc0})
		for i, op := range ops {
			res.Attempted++
			if errs[i] != nil {
				res.Failed++
				report("operation %d failed: %v", res.Attempted, errs[i])
				continue
			}
			if err := op.check(); err != nil {
				res.Correct = false
				report("operation %d: wrong output: %v", res.Attempted, err)
			}
			samples = append(samples, sample{r, traced, lats[i], op.cycles, rss[i]})
			if traced {
				rs := time.Now()
				tr.beginOp(lats[i])
				if err := op.replay(tr); err != nil {
					res.Correct = false
					report("operation %d: traced replay: %v", res.Attempted, err)
				}
				replay += time.Since(rs)
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	if len(samples) == 0 {
		return nil, errors.New("no operation completed")
	}
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = ms(s.lat)
	}
	fmt.Fprintf(stdout, "perfbench: setup_s over %d set-ups: min %.6f median %.6f max %.6f\n",
		len(setups), percentile(setups, 0), median(setups), percentile(setups, 1))
	fmt.Fprintf(stdout, "perfbench: attempted=%d failed=%d rounds=%d\n", res.Attempted, res.Failed, samples[len(samples)-1].round+1)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero peak on failure is only printed
	fmt.Fprintf(stdout, "perfbench: reference only, not gated: op_p99_ms=%.4f over %d samples, peak_rss_mb=%.1f\n",
		percentile(lats, 0.99), len(lats), float64(ru.Maxrss)*1024/1e6)

	if tr != nil {
		res.Metrics = tr.metrics(samples, def.tracedRounds, replay)
		path, err := tr.writeSpans(cfg.out, cfg.workload)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "perfbench: spans written to %s\n", path)
		return res, nil
	}
	res.Metrics = endToEnd(samples, blocks, setups, def.minRounds)
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(samples []sample, blocks []block, setups []float64, minRounds int) map[string]metric {
	var lats, rss []float64
	var cycles, cycleOps int64
	for _, s := range samples {
		lats = append(lats, ms(s.lat))
		rss = append(rss, float64(s.rss)/1e6)
		if s.round < minRounds {
			cycles += s.cycles
			cycleOps++
		}
	}
	var ops int
	var cpu time.Duration
	var alloc uint64
	for _, b := range blocks {
		ops += b.ops
		cpu += b.cpu
		alloc += b.alloc
	}
	n := float64(ops)
	return map[string]metric{
		"setup_s": {median(setups), "s"},
		// Completed operations over the time they took, without the
		// fastest and slowest twentieth: a cost that slows one operation
		// in twenty or more counts, while the host's steal-time bursts
		// stay out. A rarer cost still shows in cpu_ms_per_op, which
		// counts all of each round's CPU.
		"ops_per_s":       {1e3 / trimmedMean(lats, 0.05), "1/s"},
		"op_p50_ms":       {median(lats), "ms"},
		"cpu_ms_per_op":   {ms(cpu) / n, "ms"},
		"alloc_mb_per_op": {float64(alloc) / n / 1e6, "MB"},
		// The mean of the resident set sampled after each operation:
		// the process's peak is not steady, since whether one more
		// 32 MiB simulator state is resident at that moment depends on
		// when the collector ran.
		"rss_mb":            {mean(rss), "MB"},
		"sim_cycles_per_op": {float64(cycles) / float64(cycleOps), "cycles"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative number of bytes the Go heap has allocated.
// Unlike runtime.ReadMemStats it does not stop the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

var (
	statm    *os.File
	statmBuf [128]byte
)

// residentBytes is the process's current resident set size. It reads
// /proc/self/statm through a file kept open, into a fixed buffer, so the
// reading allocates nothing inside a measured block.
func residentBytes() int64 {
	if statm == nil {
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			return 0
		}
		statm = f
	}
	n, err := statm.ReadAt(statmBuf[:], 0)
	if n == 0 || (err != nil && err != io.EOF) {
		return 0
	}
	// The second field is the resident page count.
	f := statmBuf[:n]
	i := 0
	for i < len(f) && f[i] != ' ' {
		i++
	}
	var pages int64
	for i++; i < len(f) && f[i] >= '0' && f[i] <= '9'; i++ {
		pages = pages*10 + int64(f[i]-'0')
	}
	return pages * int64(os.Getpagesize())
}

// cpuModel reads the CPU model name for the run's host line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest share p.
func trimmedMean(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p * float64(len(s)))
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
