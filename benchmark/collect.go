package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/iofault"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// The collect workload: what `whereru -checkpoint -store` users wait for.
// The full schedule at 1:2000, dense sweeps every second day so that one
// study yields more than a hundred sweep days (enough to hold a 90th
// percentile), no scenario, one sweep worker per CPU. A study takes about
// 12 s on two CPUs, so a 15 s budget pools the sweep days of two.
const (
	collectScale = 2000
	collectStep  = 2
	collectSetup = 3 // world builds timed for setup_s
)

func collectOptions(cfg config) core.Options {
	return core.Options{
		World:     world.Config{Seed: cfg.seed, Scale: cfg.scaleOr(collectScale), RFShare: 0.10},
		DenseStep: collectStep,
		Workers:   runtime.NumCPU(),
		CollectMX: true,
	}
}

// studyOut is what one collect study produced.
type studyOut struct {
	wall, collect time.Duration
	sweepDays     []time.Duration // per sweep day, untraced studies only
	domains       int
	failed        int // domain measurements flagged Failed
	digest        string
	journal       string
	storeFile     string
}

func runCollect(ctx context.Context, cfg config, res *result) error {
	opts := collectOptions(cfg)
	setup, err := timeSetup(collectSetup, func() error {
		_, err := core.New(opts)
		return err
	})
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = setup
	res.fig("setup_s", setup, "s", collectSetup)
	settle(true)

	var studies []studyOut
	start := time.Now()
	for i := 0; ; i++ {
		st, err := collectStudy(ctx, opts, filepath.Join(cfg.dir, fmt.Sprintf("study%d", i)))
		if err != nil {
			return err
		}
		studies = append(studies, st)
		// A traced run times one untraced study; otherwise studies repeat
		// until the budget has passed.
		if cfg.trace || time.Since(start) >= cfg.budget() {
			break
		}
	}
	res.e2e["rss_peak_mb"] = peakRSSMB()

	var walls, rates []float64
	var ops []time.Duration
	for _, st := range studies {
		walls = append(walls, st.wall.Seconds())
		rates = append(rates, float64(st.domains)/st.collect.Seconds())
		ops = append(ops, st.sweepDays...)
		res.attempted += int64(st.domains)
	}
	if err := opPercentiles(res, ops, 0.90, 0); err != nil {
		return err
	}
	first := studies[0]
	res.fig("study_s", median(walls), "s", len(walls))
	res.fig("domains_per_s", median(rates), "1/s", len(rates))
	res.fig("failed_share", ratio(float64(first.failed), float64(first.domains)), "ratio", first.domains)
	res.fig("sweep_p50_ms", res.e2e["op_p50_ms"], "ms", len(ops))
	res.fig("sweep_p90_ms", res.e2e["op_tail_ms"], "ms", len(ops))
	res.fig("rss_peak_mb", res.e2e["rss_peak_mb"], "MB", 1)

	for i, st := range studies[1:] {
		res.gate(fmt.Sprintf("collect-repeat-%d", i+1), st.digest == first.digest, "report+store+journal digest %s", short(st.digest))
	}
	if cfg.trace {
		traced, err := collectTraced(ctx, opts, filepath.Join(cfg.dir, "traced"), res, first.wall)
		if err != nil {
			return err
		}
		res.attempted += int64(traced.domains)
		res.gate("collect-traced", traced.digest == first.digest, "traced digest %s, untraced %s", short(traced.digest), short(first.digest))
	}
	return recordDigest(res, cfg, "collect", opts.World.Scale, first.digest)
}

// collectStudy runs one untraced study through the public entry points:
// core.New, Study.Collect with a checkpoint journal, RenderAll and
// SaveStoreFile. Sweep days are timed at the journal's fsyncs.
func collectStudy(ctx context.Context, opts core.Options, dir string) (studyOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return studyOut{}, err
	}
	out := studyOut{journal: filepath.Join(dir, "journal.wrjl"), storeFile: filepath.Join(dir, "study.wrst")}
	clock := &syncClock{FS: iofault.OS, path: out.journal}
	opts.CheckpointPath, opts.FS = out.journal, clock

	t0 := time.Now()
	s, err := core.New(opts)
	if err != nil {
		return out, err
	}
	c0 := time.Now()
	if err := s.Collect(ctx); err != nil {
		return out, err
	}
	out.collect = time.Since(c0)
	var rep bytes.Buffer
	if err := s.RenderAll(&rep); err != nil {
		return out, err
	}
	if err := s.SaveStoreFile(out.storeFile); err != nil {
		return out, err
	}
	out.wall = time.Since(t0)

	out.sweepDays = clock.intervals()
	for _, st := range s.Stats {
		out.domains += st.Domains
		out.failed += st.Failed
	}
	out.digest, err = studyDigest(rep.Bytes(), out.storeFile, out.journal)
	return out, err
}

// collectTraced runs the same study with a span around every call into a
// layer. Study.Collect is one call, so the traced run drives the sweep
// from the pieces Collect is made of: the zone snapshot, the resolver
// under Pipeline.MeasureUnit, Store.BeginSweep/Add and
// Journal.AppendSweep (the grid commit path), then the weekly TLS scans.
// Its report, store and journal must equal the untraced study's.
func collectTraced(ctx context.Context, opts core.Options, dir string, res *result, untraced time.Duration) (studyOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return studyOut{}, err
	}
	out := studyOut{journal: filepath.Join(dir, "journal.wrjl"), storeFile: filepath.Join(dir, "study.wrst")}
	tr := newTracer()
	rt := readRuntime()
	t0 := time.Now()
	root := tr.begin("collect.study", -1)

	var s *core.Study
	var err error
	tr.do("world.build", root, func() { s, err = core.New(opts) })
	if err != nil {
		return out, err
	}
	wire := &countingTransport{next: s.World.Mem}
	resolver := dns.NewResolver(wire, s.World.Roots())
	pipe := &openintel.Pipeline{Resolver: resolver, Seeds: s.World.Registries, Clock: s.World.Clock(), Store: s.Store, Workers: opts.Workers, CollectMX: opts.CollectMX}
	var j *store.Journal
	tr.do("store.journal_append", root, func() { j, err = store.CreateJournal(out.journal) })
	if err != nil {
		return out, err
	}
	defer j.Close()

	var hits, misses, coalesced int64
	var retries, failed, nx, unreachable, segments int
	for _, day := range openintel.Schedule(simtime.StudyStart, simtime.StudyEnd, s.Opts.DenseFrom, s.Opts.DenseStep) {
		var seeds []string
		tr.do("registry.snapshot", root, func() { seeds = s.World.Registries.ZoneSnapshot(day) })
		var u openintel.UnitResult
		tr.do("openintel.measure", root, func() {
			s.World.Clock().Set(day)
			resolver.FlushCache()
			u, err = pipe.MeasureUnit(ctx, day, seeds)
		})
		if err != nil {
			return out, err
		}
		tr.do("store.ingest", root, func() {
			s.Store.BeginSweep(day)
			for _, m := range u.Measurements {
				s.Store.Add(m)
			}
		})
		stats := store.JournalStats{Domains: len(seeds), Failed: u.Failed, NXDomain: u.NXDomain, Retries: u.Retries, Recovered: u.Recovered, Unreachable: u.Unreachable}
		tr.do("store.journal_append", root, func() {
			err = j.AppendSweep(store.JournalSweep{Day: day, Stats: stats, Measurements: u.Measurements})
		})
		if err != nil {
			return out, err
		}
		segments++
		s.Sweeps = append(s.Sweeps, day)
		s.Stats = append(s.Stats, openintel.SweepStats{Day: day, Domains: stats.Domains, Failed: stats.Failed, NXDomain: stats.NXDomain, Retries: stats.Retries, Recovered: stats.Recovered, Unreachable: stats.Unreachable})
		out.domains += len(seeds)
		hits, misses, coalesced = hits+u.CacheHits, misses+u.CacheMisses, coalesced+u.CacheCoalesced
		retries, failed, nx, unreachable = retries+u.Retries, failed+u.Failed, nx+u.NXDomain, unreachable+u.Unreachable
	}
	for d := world.RussianCAStartDay; d <= simtime.CTWindowEnd; d = d.Add(7) {
		tr.do("scan.sweep", root, func() { s.Archive.Record(d, s.World.Scanner.Sweep(d)) })
	}
	var rep bytes.Buffer
	tr.do("report.render", root, func() { err = s.RenderAll(&rep) })
	if err != nil {
		return out, err
	}
	tr.do("store.save", root, func() { err = s.SaveStoreFile(out.storeFile) })
	if err != nil {
		return out, err
	}
	tr.end(root)
	out.wall = time.Since(t0)
	setRuntimeLayer(res, rt)

	spans := tr.snapshot()
	L := res.layer
	L["world.build_ms"] = ms(total(spans, "world.build"))
	L["world.alloc_mb"] = allocMB(spans, "world.build")
	L["registry.snapshot_ms"] = ms(total(spans, "registry.snapshot"))
	L["registry.domains"] = float64(out.domains)
	L["dns.exchanges"] = float64(wire.n.Load())
	L["dns.exchanges_per_domain"] = ratio(float64(wire.n.Load()), float64(out.domains))
	L["dns.exchange_ms"] = ms(time.Duration(wire.busy.Load()))
	L["dns.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	L["dns.cache_coalesced"] = float64(coalesced)
	L["dns.retries"] = float64(retries)
	L["openintel.measure_ms"] = ms(total(spans, "openintel.measure"))
	L["openintel.domains"] = float64(out.domains)
	L["openintel.failed"] = float64(failed)
	L["openintel.nxdomain"] = float64(nx)
	L["openintel.unreachable"] = float64(unreachable)
	L["store.ingest_ms"] = ms(total(spans, "store.ingest"))
	setStoreMem(res, s.Store)
	L["store.journal_append_ms"] = ms(total(spans, "store.journal_append"))
	L["store.journal_mb"] = fileMB(out.journal)
	L["store.journal_segments"] = float64(segments)
	L["scan.sweep_ms"] = ms(total(spans, "scan.sweep"))
	L["store.file_mb"] = fileMB(out.storeFile)
	L["report.render_ms"] = ms(total(spans, "report.render"))
	collectTime := total(spans, "registry.snapshot") + total(spans, "openintel.measure") + total(spans, "store.ingest") + total(spans, "store.journal_append")
	res.fig("traced_exchanges_per_s", float64(wire.n.Load())/collectTime.Seconds(), "1/s", segments)
	res.fig("traced_cache_hit_ratio", L["dns.cache_hit_ratio"], "ratio", segments)

	finishTrace(res, tr, ms(out.wall), ms(untraced), "collect.study")
	out.digest, err = studyDigest(rep.Bytes(), out.storeFile, out.journal)
	return out, err
}

// studyDigest is the SHA-256 of the report bytes, the store file and the
// journal file, each hashed separately and joined.
func studyDigest(report []byte, files ...string) (string, error) {
	sum := sha256.Sum256(report)
	d := hex.EncodeToString(sum[:])
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(b)
		d += "-" + hex.EncodeToString(sum[:])
	}
	return d, nil
}

// recordDigest gates a workload's output digest against the one an
// earlier run with the same workload, scale and seed recorded under the
// output directory, and records it when there is none. Delete
// <out>/digests after a change that is meant to alter output bytes.
func recordDigest(res *result, cfg config, name string, scale int, digest string) error {
	dir := filepath.Join(filepath.Dir(cfg.dir), "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-scale%d-seed%d", name, scale, cfg.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		res.gate(name+"-same-seed", string(prev) == digest, "digest %s, earlier run %s", short(digest), short(string(prev)))
	case os.IsNotExist(err):
		res.gate(name+"-same-seed", true, "digest %s recorded for later runs", short(digest))
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
	return nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// setStoreMem stores the store.* occupancy metrics of st.
func setStoreMem(res *result, st *store.Store) {
	m := st.MemStats()
	res.layer["store.epochs"] = float64(m.Epochs)
	res.layer["store.distinct_configs"] = float64(m.DistinctConfigs)
	res.layer["store.bytes_per_epoch"] = m.BytesPerEpoch()
}

// allocMB is the bytes allocated across every span named name, in MB.
func allocMB(spans []span, name string) float64 {
	var b uint64
	for _, s := range spans {
		if s.Name == name {
			b += s.Bytes
		}
	}
	return float64(b) / (1 << 20)
}

func fileMB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}
