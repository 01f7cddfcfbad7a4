// Command benchmark is the whereru study benchmark: one program that
// runs a named workload from a workload seed, times the study only from
// outside through the public entry points of core, openintel, store,
// stream and serve, checks that the outputs are correct, and prints the
// metrics declared in BENCHMARK.json at the repository root.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload collect|reanalyze|live-serve \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end metrics; with --trace 1 the same workload
// runs once untraced and once with spans around every call into a layer,
// and the metrics are the per-layer ones. Human-readable figures, the
// correctness gates and (when traced) the layer ledger come first. The
// exit code is non-zero when a correctness gate fails or the run cannot
// complete. See benchmark/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric; the lists below mirror BENCHMARK.json.
type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics of an untraced run. The operation is the
// workload's unit of user-visible work: a sweep day (collect), a full
// regeneration (reanalyze) or one API request of the open-loop mix
// (live-serve). op_tail_ms is the 90th percentile of it for collect and
// reanalyze, and the 75th for live-serve, whose higher percentiles are
// the time of the folds that requests wait for (see liveserve.go). On
// live-serve both op metrics are medians over one-second windows of the
// request schedule.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"world.build_ms", "ms", "lower"},
	{"world.alloc_mb", "MB", "lower"},
	{"registry.snapshot_ms", "ms", "lower"},
	{"registry.domains", "count", "higher"},
	{"dns.exchanges", "count", "lower"},
	{"dns.exchanges_per_domain", "ratio", "lower"},
	{"dns.exchange_ms", "ms", "lower"},
	{"dns.cache_hit_ratio", "ratio", "higher"},
	{"dns.cache_coalesced", "count", "higher"},
	{"dns.retries", "count", "lower"},
	{"openintel.measure_ms", "ms", "lower"},
	{"openintel.domains", "count", "higher"},
	{"openintel.failed", "count", "lower"},
	{"openintel.nxdomain", "count", "lower"},
	{"openintel.unreachable", "count", "lower"},
	{"store.ingest_ms", "ms", "lower"},
	{"store.epochs", "count", "lower"},
	{"store.distinct_configs", "count", "lower"},
	{"store.bytes_per_epoch", "B", "lower"},
	{"store.journal_append_ms", "ms", "lower"},
	{"store.journal_mb", "MB", "lower"},
	{"store.journal_segments", "count", "higher"},
	{"scan.sweep_ms", "ms", "lower"},
	{"store.encode_ms", "ms", "lower"},
	{"store.decode_ms", "ms", "lower"},
	{"store.file_mb", "MB", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"analysis.fig1_ms", "ms", "lower"},
	{"analysis.fig2_ms", "ms", "lower"},
	{"analysis.fig3_ms", "ms", "lower"},
	{"analysis.fig4_ms", "ms", "lower"},
	{"analysis.fig5_ms", "ms", "lower"},
	{"analysis.hosting_ms", "ms", "lower"},
	{"analysis.sanctioned_hosting_ms", "ms", "lower"},
	{"analysis.mail_ms", "ms", "lower"},
	{"analysis.reachability_ms", "ms", "lower"},
	{"analysis.latency_ms", "ms", "lower"},
	{"analysis.movement_ms", "ms", "lower"},
	{"analysis.relocation_ms", "ms", "lower"},
	{"analysis.concentration_ms", "ms", "lower"},
	{"analysis.table1_ms", "ms", "lower"},
	{"analysis.fig8_ms", "ms", "lower"},
	{"analysis.table2_ms", "ms", "lower"},
	{"analysis.russian_ca_ms", "ms", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"report.markdown_ms", "ms", "lower"},
	{"report.csv_ms", "ms", "lower"},
	{"stream.prime_ms", "ms", "lower"},
	{"stream.fold_ms", "ms", "lower"},
	{"stream.domains_touched", "count", "lower"},
	{"stream.classifications", "count", "lower"},
	{"stream.points_patched", "count", "lower"},
	{"stream.fresh_p50_ms", "ms", "lower"},
	{"stream.fresh_p90_ms", "ms", "lower"},
	{"serve.load_ms", "ms", "lower"},
	{"serve.new_ms", "ms", "lower"},
	{"serve.fold_patch_ms", "ms", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.coalesced", "count", "higher"},
	{"serve.computations", "count", "lower"},
	{"serve.saturated", "count", "lower"},
	{"serve.patched", "count", "higher"},
	{"serve.warm_p50_ms", "ms", "lower"},
	{"serve.warm_p99_ms", "ms", "lower"},
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.cold_p99_ms", "ms", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"loadgen.queue_ms", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// minCoverage is the share of the gated root spans of a traced run (the
// spans in which the benchmark calls one layer after another) that their
// layer spans must cover.
const minCoverage = 0.95

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	scale   int     // world scale divisor; 0 takes the workload's default
	rate    float64 // live-serve requests per second; 0 runs a closed loop
	dir     string  // private scratch directory for journals and stores
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// scaleOr returns the configured scale, or def when none was given.
func (c config) scaleOr(def int) int {
	if c.scale > 0 {
		return c.scale
	}
	return def
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, res *result) error
}

var workloads = []workload{
	{"collect", runCollect},
	{"reanalyze", runReanalyze},
	{"live-serve", runLiveServe},
}

// figure is one human-readable figure of a run, named as in the study's
// metric vocabulary (study_s, domains_per_s, warm_p99_ms, ...).
type figure struct {
	name  string
	value float64
	unit  string
	n     int
}

// result collects what a run measured and checked.
type result struct {
	attempted, failed int64
	gates             []string
	gateFailed        bool
	e2e               map[string]float64
	layer             map[string]float64
	figures           []figure
	spans             []span
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.Name] = 0
	}
	return r
}

// gate records one correctness check.
func (r *result) gate(name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.gateFailed = true
		r.failed++
	}
	r.gates = append(r.gates, fmt.Sprintf("gate %-28s %-6s %s", name, status, fmt.Sprintf(format, args...)))
}

// fig records one human-readable figure.
func (r *result) fig(name string, value float64, unit string, n int) {
	r.figures = append(r.figures, figure{name, value, unit, n})
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line assembles the result line for the run's mode; it fails when a
// declared metric is missing or not a finite number.
func (r *result) line(trace bool) (resultLine, error) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	out := resultLine{Correct: !r.gateFailed, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("run attempted nothing")
	}
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: collect, reanalyze or live-serve")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload traced and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch files and trace output")
	scale := fs.Int("scale", 0, "world scale divisor (0 = the workload's default)")
	rate := fs.Float64("rate", liveRate, "live-serve request rate per second (0 = closed loop, for measuring saturation)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *rate < 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload collect|reanalyze|live-serve, --seconds > 0, --trace 0|1 and --rate >= 0\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, rate: *rate, dir: dir}
	res := newResult()
	if err := w.run(context.Background(), cfg, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.trace {
		writeLedger(stderr, res.spans)
		path := filepath.Join(*out, "trace-"+w.name+"-"+strconv.FormatInt(*seed, 10)+".json")
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
	}
	for _, f := range res.figures {
		fmt.Fprintf(stdout, "metric %-24s %14.4f %-6s n=%d\n", f.name, f.value, f.unit, f.n)
	}
	for _, g := range res.gates {
		fmt.Fprintln(stdout, g)
	}
	line, err := res.line(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// collectedSetups is how many times reanalyze and live-serve repeat
// their set-up, a whole collection, to time setup_s.
const collectedSetups = 3

// timeSetup runs setup reps times and returns the median duration in
// seconds, keeping the last repetition's state.
func timeSetup(reps int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// opPercentiles stores op_p50_ms and op_tail_ms, the median and the
// tail quantile of the op latencies, failing when too few samples hold
// the tail. With a window > 0 the ops, in the order they ran, are cut
// into windows of that many and each metric is the median of the
// windows' quantiles (see windowedQuantiles); otherwise it is the
// quantile of all of them.
func opPercentiles(res *result, ops []time.Duration, tail float64, window int) error {
	if window <= 0 || window > len(ops) {
		window = len(ops)
	}
	if !holds(window, tail) {
		return fmt.Errorf("%d operations cannot hold a %.0fth percentile (need %d)", window, 100*tail, minSamples(tail))
	}
	xs := make([]float64, len(ops))
	for i, d := range ops {
		xs[i] = ms(d)
	}
	q := windowedQuantiles(xs, window, 0.50, tail)
	res.e2e["op_p50_ms"], res.e2e["op_tail_ms"] = q[0], q[1]
	return nil
}

// settle collects the garbage set-up left behind and returns it to the
// OS, so the timed phase starts from the heap it needs. With reset it
// also restarts the peak-RSS counter (Linux clear_refs), so rss_peak_mb
// reports the timed phase and not the set-up collection; where that is
// not permitted the peak covers the whole process.
func settle(reset bool) {
	runtime.GC()
	debug.FreeOSMemory()
	if reset {
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// runtimeSample is a reading of the Go runtime's CPU and allocation
// counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

// setRuntimeLayer stores the runtime.* per-layer metrics for the interval
// since before.
func setRuntimeLayer(res *result, before runtimeSample) {
	after := readRuntime()
	res.layer["runtime.gc_cpu_pct"] = 100 * ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	res.layer["runtime.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
}

// finishTrace keeps a traced run's spans, stores its coverage and
// overhead metrics and gates the coverage of the root spans named one of
// roots. traced and untraced are the same end-to-end time, in ms, with
// tracing on and off.
func finishTrace(res *result, tr *tracer, traced, untraced float64, roots ...string) {
	res.spans = tr.snapshot()
	cov := coverage(res.spans, roots...)
	res.layer["trace.coverage_pct"] = 100 * cov
	res.layer["trace.overhead_pct"] = 100 * ratio(traced-untraced, untraced)
	res.fig("trace_overhead_ms", traced-untraced, "ms", 1)
	res.gate("trace-coverage", cov >= minCoverage, "layer spans cover %.2f%% of %s (need %.0f%%)", 100*cov, strings.Join(roots, " + "), 100*minCoverage)
}
