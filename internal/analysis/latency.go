package analysis

import (
	"sort"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// Relocation latency quantifies the paper's §6 observation that
// "virtually all of the impacted sites quickly found new providers":
// for the domains hosted in an exiting provider's network on the event
// day, how many days passed before each was first observed hosted
// elsewhere?

// LatencyReport is the distribution of relocation delays after a
// provider-exit event.
type LatencyReport struct {
	ASN   netsim.ASN
	Event simtime.Day
	// Relocated maps each relocated domain to the first sweep day it was
	// seen outside the ASN.
	Relocated int
	// StillThere counts domains never observed leaving by the end.
	StillThere int
	// Gone counts domains that dropped out of the zone instead.
	Gone int
	// Delays are the per-domain days-to-relocation, sorted ascending.
	Delays []int
}

// Percentile returns the p-th percentile delay in days (nearest-rank
// method; p in [0,100]). ok is false when nothing relocated.
func (r LatencyReport) Percentile(p float64) (int, bool) {
	if len(r.Delays) == 0 {
		return 0, false
	}
	rank := int(p/100*float64(len(r.Delays)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.Delays) {
		rank = len(r.Delays)
	}
	return r.Delays[rank-1], true
}

// Median returns the median delay.
func (r LatencyReport) Median() (int, bool) { return r.Percentile(50) }

// RelocationLatency measures, for every domain hosted in asn on the event
// day, the first post-event sweep on which it resolved outside the ASN.
// Granularity is bounded by the sweep cadence (the paper's daily data has
// day granularity; a 3-day schedule quantizes to 3 days). It runs on one
// store snapshot sharded across workers; per-shard counters and delay
// lists merge deterministically (the delays are sorted at the end).
func (a *Analyzer) RelocationLatency(asn netsim.ASN, event simtime.Day, until simtime.Day) LatencyReport {
	rep := LatencyReport{ASN: asn, Event: event}
	snap := a.Store.Snapshot()
	var sweeps []simtime.Day
	for _, d := range snap.Sweeps() {
		if d > event && d <= until {
			sweeps = append(sweeps, d)
		}
	}
	shards := make([]LatencyReport, a.workers())
	used := a.shard(snap.NumDomains(), func(shard, lo, hi int) {
		sr := &shards[shard]
		for i := lo; i < hi; i++ {
			cfg, ok := snap.At(i, event)
			if !ok || !snap.MeasuredAt(i, event) || cfg.Failed || !a.hostedIn(cfg, asn) {
				continue
			}
			relocated := false
			measuredLate := false
			for _, d := range sweeps {
				cfg, ok := snap.At(i, d)
				if !ok || !snap.MeasuredAt(i, d) {
					continue
				}
				measuredLate = true
				if cfg.Failed {
					continue
				}
				if !a.hostedIn(cfg, asn) {
					sr.Relocated++
					sr.Delays = append(sr.Delays, d.Sub(event))
					relocated = true
					break
				}
			}
			if !relocated {
				if measuredLate {
					sr.StillThere++
				} else {
					sr.Gone++
				}
			}
		}
	})
	for s := 0; s < used; s++ {
		rep.Relocated += shards[s].Relocated
		rep.StillThere += shards[s].StillThere
		rep.Gone += shards[s].Gone
		rep.Delays = append(rep.Delays, shards[s].Delays...)
	}
	sort.Ints(rep.Delays)
	return rep
}
