package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"whereru/internal/core"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// The reanalyze workload: collect once, analyze many times. Set-up
// collects a 1:4000 netnod-depeering study (the scenario makes the
// reachability and latency series do real work); the timed loop then
// regenerates every output from the stored bytes. 1:4000 keeps one
// regeneration near 160 ms on two CPUs, so a run of a few seconds holds
// the hundred iterations a 90th percentile needs.
const (
	reanalyzeScale    = 4000
	reanalyzeScenario = "netnod-depeering"
	// traceMinIters is the iteration count of each half of a traced run.
	traceMinIters = 20
)

func reanalyzeOptions(cfg config) core.Options {
	return core.Options{
		World:     world.Config{Seed: cfg.seed, Scale: cfg.scaleOr(reanalyzeScale), RFShare: 0.10},
		DenseStep: 3,
		Workers:   runtime.NumCPU(),
		CollectMX: true,
		Scenario:  reanalyzeScenario,
	}
}

// analysisCall is one call the report entry points make into the
// analysis layer, with the arguments they pass.
type analysisCall struct {
	layer string // span name analysis.<layer>, metric analysis.<layer>_ms
	run   func(s *core.Study)
}

// movement and relocation are the provider analyses the report runs
// with the day of each provider's statement as the baseline.
func movement(asn netsim.ASN, from simtime.Day) func(*core.Study) {
	return func(s *core.Study) { s.Movement(asn, from) }
}

func relocation(asn netsim.ASN, event simtime.Day) func(*core.Study) {
	return func(s *core.Study) { s.Analyzer.RelocationLatency(asn, event, simtime.StudyEnd) }
}

// analysisCalls are the distinct analysis calls of RenderAll,
// ExperimentsMarkdown and ExportCSV (core/experiments.go): every figure
// and table getter, the four provider movement analyses, the three
// relocation-latency analyses and the sanctioned-domain hosting series.
// A regeneration makes each once itself, after the report entry points
// (so each is timed on a warm store, not right after the decode), in a
// span of its own. The entry points make these calls again, several of
// them more than once, so the report.* times include the analysis they
// run. Subtracting the separately timed calls from an entry point left
// between -3 and +2 ms of a 70 ms RenderAll: measured from outside, the
// report's own formatting is below that noise.
var analysisCalls = []analysisCall{
	{"fig1", func(s *core.Study) { s.Fig1() }},
	{"fig2", func(s *core.Study) { s.Fig2() }},
	{"fig3", func(s *core.Study) { s.Fig3() }},
	{"fig4", func(s *core.Study) { s.Fig4() }},
	{"fig5", func(s *core.Study) { s.Fig5() }},
	{"hosting", func(s *core.Study) { s.Hosting() }},
	{"sanctioned_hosting", func(s *core.Study) {
		sanc := s.World.Sanctions
		s.Analyzer.HostingCompositionSeries([]simtime.Day{simtime.ConflictStart.Add(-7), simtime.StudyEnd},
			func(domain string) bool { return sanc.ContainsEver(domain) })
	}},
	{"mail", func(s *core.Study) { s.Mail() }},
	{"reachability", func(s *core.Study) { s.Reachability() }},
	{"latency", func(s *core.Study) { s.RouteLatency() }},
	{"movement", movement(16509, world.AmazonStmtDay)},
	{"movement", movement(47846, world.SedoStmtDay.Add(-1))},
	{"movement", movement(13335, world.CloudflareStmtDay)},
	{"movement", movement(15169, world.GoogleStmtDay)},
	{"relocation", relocation(47846, world.SedoStmtDay.Add(-1))},
	{"relocation", relocation(16509, world.AmazonStmtDay)},
	{"relocation", relocation(15169, world.GoogleStmtDay)},
	{"concentration", func(s *core.Study) { s.Concentration() }},
	{"table1", func(s *core.Study) { s.Table1() }},
	{"fig8", func(s *core.Study) { s.Fig8() }},
	{"table2", func(s *core.Study) { s.Table2() }},
	{"russian_ca", func(s *core.Study) { s.RussianCA() }},
}

// regen is the loop body of the reanalyze workload.
type regen struct {
	s        *core.Study
	enc, out bytes.Buffer
	tr       *tracer
	digest   string
}

// nopCloser discards nothing: ExportCSV writes every file into out.
type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// once runs one regeneration: a Store.WriteTo → store.Read round trip
// whose decoded store the study adopts, RenderAll, ExperimentsMarkdown,
// ExportCSV and every analysis call they make. It returns the
// regeneration's wall time; the output digest is taken afterwards.
func (g *regen) once() (time.Duration, error) {
	s, tr := g.s, g.tr
	root := tr.begin("reanalyze.regenerate", -1)
	t0 := time.Now()
	var err error
	g.enc.Reset()
	tr.do("store.encode", root, func() { _, err = s.Store.WriteTo(&g.enc) })
	if err != nil {
		return 0, err
	}
	var st *store.Store
	tr.do("store.decode", root, func() { st, err = store.Read(bytes.NewReader(g.enc.Bytes())) })
	if err != nil {
		return 0, err
	}
	s.Store, s.Analyzer.Store, s.Sweeps = st, st, st.Sweeps()

	g.out.Reset()
	tr.do("report.render", root, func() { err = s.RenderAll(&g.out) })
	if err != nil {
		return 0, err
	}
	tr.do("report.markdown", root, func() { err = s.ExperimentsMarkdown(&g.out) })
	if err != nil {
		return 0, err
	}
	tr.do("report.csv", root, func() {
		err = s.ExportCSV(func(string) (io.WriteCloser, error) { return nopCloser{&g.out}, nil })
	})
	if err != nil {
		return 0, err
	}
	for _, c := range analysisCalls {
		id := tr.begin("analysis."+c.layer, root)
		c.run(s)
		tr.end(id)
	}
	d := time.Since(t0)
	tr.end(root)
	return d, err
}

// outputDigest hashes the iteration's encoded store and report bytes.
func (g *regen) outputDigest() string {
	a, b := sha256.Sum256(g.enc.Bytes()), sha256.Sum256(g.out.Bytes())
	return hex.EncodeToString(a[:]) + "-" + hex.EncodeToString(b[:])
}

// loop runs regenerations until both the budget has passed and minIters
// have run, gating every iteration's output against the first one's.
// Iteration i encodes the store iteration i-1 decoded, so equal store
// bytes also prove that a decoded store re-encodes to the same bytes.
func (g *regen) loop(res *result, budget time.Duration, minIters int, label string) ([]time.Duration, error) {
	var durs []time.Duration
	start := time.Now()
	mismatches := 0
	for len(durs) < minIters || time.Since(start) < budget {
		if time.Since(start) > hardLimit {
			return nil, fmt.Errorf("%d regenerations did not finish within %s", minIters, hardLimit)
		}
		d, err := g.once()
		if err != nil {
			return nil, err
		}
		durs = append(durs, d)
		dg := g.outputDigest()
		if g.digest == "" {
			g.digest = dg
		} else if dg != g.digest {
			mismatches++
		}
	}
	res.attempted += int64(len(durs))
	res.gate("reanalyze-"+label, mismatches == 0, "%d of %d iterations reproduced the first iteration's bytes %s", len(durs)-mismatches, len(durs), short(g.digest))
	return durs, nil
}

// hardLimit bounds one timed loop so a run ends well within the time a
// run is allowed.
const hardLimit = 100 * time.Second

func runReanalyze(ctx context.Context, cfg config, res *result) error {
	opts := reanalyzeOptions(cfg)
	var s *core.Study
	var buildMS float64
	setup, err := timeSetup(collectedSetups, func() error {
		var err error
		t0 := time.Now()
		if s, err = core.New(opts); err != nil {
			return err
		}
		buildMS = ms(time.Since(t0))
		return s.Collect(ctx)
	})
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setup
	res.fig("setup_s", setup, "s", collectedSetups)
	settle(true)

	g := &regen{s: s}
	rt := readRuntime()
	budget, minIters := cfg.budget(), minSamples(0.90)
	if cfg.trace {
		budget, minIters = cfg.budget()/2, traceMinIters
	}
	durs, err := g.loop(res, budget, minIters, "untraced")
	if err != nil {
		return err
	}
	res.e2e["rss_peak_mb"] = peakRSSMB()
	if err := opPercentiles(res, durs, 0.90, 0); err != nil && !cfg.trace {
		return err
	}
	sorted := durationsMS(durs)
	res.fig("report_ms", percentile(sorted, 0.50), "ms", len(sorted))
	if q, ok := highestHeld(len(sorted), []float64{0.75, 0.90, 0.99}); ok {
		res.fig(fmt.Sprintf("report_p%02.0f_ms", 100*q), percentile(sorted, q), "ms", len(sorted))
	}
	res.fig("rss_peak_mb", res.e2e["rss_peak_mb"], "MB", 1)
	res.fig("store_file_mb", float64(g.enc.Len())/(1<<20), "MB", 1)
	if !cfg.trace {
		return recordDigest(res, cfg, "reanalyze", opts.World.Scale, g.digest)
	}

	g.tr = newTracer()
	traced, err := g.loop(res, budget, minIters, "traced")
	if err != nil {
		return err
	}
	setRuntimeLayer(res, rt)
	spans := g.tr.snapshot()
	n := float64(len(traced))
	L := res.layer
	L["world.build_ms"] = buildMS
	per := func(metric, span string) { L[metric] = ms(total(spans, span)) / n }
	per("store.encode_ms", "store.encode")
	per("store.decode_ms", "store.decode")
	L["store.file_mb"] = float64(g.enc.Len()) / (1 << 20)
	for _, c := range analysisCalls {
		per("analysis."+c.layer+"_ms", "analysis."+c.layer)
	}
	// The report entry points call the analysis layer themselves, so their
	// times include it; see analysisCalls.
	per("report.render_ms", "report.render")
	per("report.markdown_ms", "report.markdown")
	per("report.csv_ms", "report.csv")
	setStoreMem(res, s.Store)
	finishTrace(res, g.tr, median(durationsMS(traced)), median(durationsMS(durs)), "reanalyze.regenerate")
	return recordDigest(res, cfg, "reanalyze", opts.World.Scale, g.digest)
}
