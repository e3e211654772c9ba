package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain reads two sets of run results and prints, per workload and
// metric, each side's median and quartiles, the spread (quartile distance
// over median), how much worse B's median is than A's (negative when
// better), and whether the two medians agree within the metric's bound.
// A disagreement is labelled WORSE or BETTER by its direction. Each set is
// a directory of files named <workload>.<anything>.txt holding one run's
// standard output. It exits 1 when an end-to-end median disagrees, in
// either direction, or the share of failed operations differs.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	sides := make([]map[string][]result, 2)
	for i := range sides {
		if sides[i], err = readResults(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	var names []string
	for wl := range sides[0] {
		names = append(names, wl)
	}
	sort.Strings(names)
	bad := false
	for _, wl := range names {
		a, b := sides[0][wl], sides[1][wl]
		if len(b) == 0 {
			fmt.Fprintf(stdout, "%s: no runs in %s\n", wl, fs.Arg(1))
			bad = true
			continue
		}
		fa, fb := failedShare(a), failedShare(b)
		fmt.Fprintf(stdout, "%s: A %d runs, B %d runs; failed share A %.6f, B %.6f\n", wl, len(a), len(b), fa, fb)
		if fa != fb {
			bad = true
		}
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tA q1\tA median\tA q3\tA spread\tB q1\tB median\tB q3\tB spread\tB worse by\tbound\tverdict")
		rows := func(name, better string, bound float64, gated bool) {
			va, vb := values(a, name), values(b, name)
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			qa, qb := quartiles(va), quartiles(vb)
			w := worse(qa[1], qb[1], better)
			verdict, boundText := "-", "-"
			if gated {
				boundText = fmt.Sprintf("%.3f", bound)
				switch {
				case w > bound:
					verdict = "WORSE"
				case -w > bound:
					verdict = "BETTER"
				default:
					verdict = "agree"
				}
				if verdict != "agree" {
					bad = true
				}
				// setup_s is gated on its median only.
				if name != "setup_s" && (spread(qa) > bound || spread(qb) > bound) {
					verdict += " (spread>bound)"
				}
			}
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%.3f\t%.4g\t%.4g\t%.4g\t%.3f\t%+.4f\t%s\t%s\n",
				name, qa[0], qa[1], qa[2], spread(qa), qb[0], qb[1], qb[2], spread(qb), w, boundText, verdict)
		}
		for _, m := range spec.EndToEnd {
			rows(m.Name, m.Better, m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			rows(m.Name, m.Better, 0, false)
		}
		tw.Flush()
		fmt.Fprintln(stdout)
	}
	if bad {
		return 1
	}
	return 0
}

// readResults parses the last line of every <workload>.*.txt file in dir.
func readResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", p, err)
		}
		wl, _, _ := strings.Cut(filepath.Base(p), ".")
		out[wl] = append(out[wl], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run results (*.txt)", dir)
	}
	return out, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedShare(rs []result) float64 {
	var att, failed int
	for _, r := range rs {
		att += r.Attempted
		failed += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1)-j*4) / 4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = s[j-1] + delta*(s[j]-s[j-1])
		}
	}
	return q
}

// spread is the distance between the quartiles as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / abs(q[1])
}

// worse is how much worse b is than a, as a share of a (negative when
// better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / abs(a)
	}
	return (b - a) / abs(a)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
