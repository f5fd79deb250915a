// Command perfbench is Servo's end-to-end benchmark. It runs one workload
// (fleet, chunk-storm or live-tcp), checks that the program's outputs are
// correct, and prints a human-readable report followed by one JSON line:
//
//	perfbench --workload fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON line carries the end-to-end metrics of an
// untraced run. With --trace 1 the workload runs twice, untraced and then
// with spans at the program's layer seams plus a CPU profile; the JSON
// line carries the per-layer metrics, and the two runs must report
// identical virtual statistics. perfbench/run.py builds this program
// from source and runs it; see perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workers is the lane-scheduler pool size of both virtual workloads: the
// core count of the 2-core reference box.
const workers = 2

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one workload run reports.
type result struct {
	// attempted counts the operations and gate checks the run made,
	// failed those that failed; failures describes each failure.
	attempted, failed int64
	failures          []string
	// e2e holds the end-to-end metrics (untraced run), layer the
	// per-layer metrics (traced run).
	e2e, layer []metric
	// report holds the workload's own metrics under their specific
	// names, for the human-readable report.
	report []string
}

// check counts one gate as attempted and records it as failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// count adds n attempted operations of which failed failed.
func (r *result) count(what string, n, failed int64) {
	r.attempted += n
	r.failed += failed
	if failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d of %d %s failed", failed, n, what))
	}
}

// failedFrac is failed ÷ attempted.
func (r *result) failedFrac() float64 { return float64(r.failed) / float64(max(r.attempted, 1)) }

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// opts are the command-line options.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, chunk-storm or live-tcp")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "size of the measured window (see README.md)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var res *result
	switch o.workload {
	case "fleet":
		res = runVirtual(fleet, o)
	case "chunk-storm":
		res = runVirtual(chunkStorm, o)
	case "live-tcp":
		res = runLiveTCP(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	emit(o, res)
}

// emit prints the report and, last, the JSON result line.
func emit(o opts, res *result) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "machine: %s\n", machineShape(o.workload))
	for _, line := range res.report {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	ms := res.e2e
	if o.trace {
		ms = res.layer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(res.failures) == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// machineShape describes the host the numbers were measured on.
func machineShape(workload string) string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	w := workers
	if workload == "live-tcp" {
		w = 0 // real-time clock: no lane scheduler
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d cpu=%q go=%s workers=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), w)
}

// --- statistics --------------------------------------------------------------

// dist is a sorted sample of float64 observations.
type dist []float64

func sorted(vs []float64) dist {
	d := append(dist(nil), vs...)
	sort.Float64s(d)
	return d
}

// pct returns the p-th percentile, interpolating between ranks like
// metrics.Sample.Percentile.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(d)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return d[lo] + (rank-float64(lo))*(d[hi]-d[lo])
}

// tail returns the highest of p99.9, p99, p95, p90 and p50 that has at
// least 10 samples beyond it.
func (d dist) tail() float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(d))*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// describe renders the median and tail of a timing with its sample count.
func (d dist) describe(name, unit string) string {
	p := d.tail()
	return fmt.Sprintf("%s p50=%.4f p%g=%.4f %s (n=%d)", name, d.pct(50), p, d.pct(p), unit, len(d))
}

// mean of a sample (0 if empty).
func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(max(len(vs), 1))
}

// median of a handful of repeated measurements.
func median(vs []float64) float64 { return sorted(vs).pct(50) }
