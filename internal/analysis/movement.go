package analysis

import (
	"sort"

	"whereru/internal/netsim"
	"whereru/internal/registry"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Movement is the §3.4/Figures 6-7 analysis: comparing two measurement
// days, what happened to the domains hosted in one ASN.
type Movement struct {
	ASN  netsim.ASN
	From simtime.Day
	To   simtime.Day

	// Original is the number of domains resolving into the ASN on From.
	Original int
	// Remained still resolve into the ASN on To.
	Remained int
	// RelocatedOut resolve elsewhere on To.
	RelocatedOut int
	// Gone are no longer measured on To (left the zone).
	Gone int
	// RelocatedIn resolve into the ASN on To but were measured elsewhere
	// on From.
	RelocatedIn int
	// NewlyRegistered resolve into the ASN on To and were registered
	// after From (confirmed via whois, as the paper does with Cisco's
	// Whois API).
	NewlyRegistered int

	// OutDestinations counts where relocated-out domains went.
	OutDestinations map[netsim.ASN]int
	// InSources counts where relocated-in domains came from.
	InSources map[netsim.ASN]int
}

// RemainedPct returns Remained as a percentage of Original.
func (m Movement) RemainedPct() float64 { return pct(m.Remained, m.Original) }

// RelocatedPct returns RelocatedOut as a percentage of Original.
func (m Movement) RelocatedPct() float64 { return pct(m.RelocatedOut, m.Original) }

// TopDestinations returns the relocation destinations by volume.
func (m Movement) TopDestinations(k int) []netsim.ASN {
	return topASNs(m.OutDestinations, k)
}

func topASNs(counts map[netsim.ASN]int, k int) []netsim.ASN {
	asns := make([]netsim.ASN, 0, len(counts))
	for a := range counts {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool {
		if counts[asns[i]] != counts[asns[j]] {
			return counts[asns[i]] > counts[asns[j]]
		}
		return asns[i] < asns[j]
	})
	if k > len(asns) {
		k = len(asns)
	}
	return asns[:k]
}

// Whois resolves registration records; registry.Group satisfies it.
// Implementations must be safe for concurrent use: MovementAnalysis calls
// Whois from its shard workers.
type Whois interface {
	Whois(name string) (registry.Domain, bool)
}

// MovementAnalysis compares hosting between two sweep days for one ASN.
// It runs on the epoch engine: one snapshot pass over the domain space,
// sharded across workers, with each domain's From/To configurations read
// from its own epoch list — instead of two full per-day store walks plus
// a point lookup per incomer. Per-shard partial Movements merge by
// addition, so the result is deterministic and identical to
// referenceMovementAnalysis.
func (a *Analyzer) MovementAnalysis(asn netsim.ASN, from, to simtime.Day, whois Whois) Movement {
	m := Movement{
		ASN: asn, From: from, To: to,
		OutDestinations: make(map[netsim.ASN]int),
		InSources:       make(map[netsim.ASN]int),
	}
	snap := a.Store.Snapshot()
	n := snap.NumDomains()
	shards := make([]Movement, a.workers())
	used := a.shard(n, func(shard, lo, hi int) {
		sm := &shards[shard]
		sm.OutDestinations = make(map[netsim.ASN]int)
		sm.InSources = make(map[netsim.ASN]int)
		for i := lo; i < hi; i++ {
			cfgFrom, okFrom := snap.At(i, from)
			memberFrom := okFrom && snap.MeasuredAt(i, from) && !cfgFrom.Failed
			original := memberFrom && a.hostedIn(cfgFrom, asn)
			if original {
				sm.Original++
			}
			cfgTo, okTo := snap.At(i, to)
			memberTo := okTo && snap.MeasuredAt(i, to) && !cfgTo.Failed
			if !memberTo {
				if original {
					sm.Gone++
				}
				continue
			}
			inASN := a.hostedIn(cfgTo, asn)
			switch {
			case original && inASN:
				sm.Remained++
			case original && !inASN:
				sm.RelocatedOut++
				for dest := range a.hostASNs(cfgTo) {
					sm.OutDestinations[dest]++
				}
			case !original && inASN:
				// Incomer: newly registered or relocated in.
				if rec, ok := whois.Whois(snap.Domains()[i]); ok && rec.Created > from {
					sm.NewlyRegistered++
					continue
				}
				sm.RelocatedIn++
				// Where it came from: its configuration carried into From,
				// whether or not it was still measured then (mirroring the
				// reference path's Store.At).
				if prev, ok := snap.At(i, from); ok {
					for src := range a.hostASNs(prev) {
						sm.InSources[src]++
					}
				}
			}
		}
	})
	for s := 0; s < used; s++ {
		sm := &shards[s]
		m.Original += sm.Original
		m.Remained += sm.Remained
		m.RelocatedOut += sm.RelocatedOut
		m.Gone += sm.Gone
		m.RelocatedIn += sm.RelocatedIn
		m.NewlyRegistered += sm.NewlyRegistered
		for k, v := range sm.OutDestinations {
			m.OutDestinations[k] += v
		}
		for k, v := range sm.InSources {
			m.InSources[k] += v
		}
	}
	return m
}

// referenceMovementAnalysis is the original two-pass per-day path, kept
// as the equivalence oracle for MovementAnalysis.
func (a *Analyzer) referenceMovementAnalysis(asn netsim.ASN, from, to simtime.Day, whois Whois) Movement {
	m := Movement{
		ASN: asn, From: from, To: to,
		OutDestinations: make(map[netsim.ASN]int),
		InSources:       make(map[netsim.ASN]int),
	}
	// Pass 1: the original set.
	original := make(map[string]bool)
	a.Store.ForEachAt(from, func(domain string, cfg store.Config) {
		if cfg.Failed {
			return
		}
		if a.hostASNs(cfg)[asn] {
			original[domain] = true
			m.Original++
		}
	})
	// Pass 2: where everyone is on To.
	seenOnTo := make(map[string]bool)
	a.Store.ForEachAt(to, func(domain string, cfg store.Config) {
		if cfg.Failed {
			return
		}
		inASN := a.hostASNs(cfg)[asn]
		seenOnTo[domain] = true
		switch {
		case original[domain] && inASN:
			m.Remained++
		case original[domain] && !inASN:
			m.RelocatedOut++
			for dest := range a.hostASNs(cfg) {
				m.OutDestinations[dest]++
			}
		case !original[domain] && inASN:
			// Incomer: newly registered or relocated in.
			if rec, ok := whois.Whois(domain); ok && rec.Created > from {
				m.NewlyRegistered++
				break
			}
			m.RelocatedIn++
			if prev, ok := a.Store.At(domain, from); ok {
				for src := range a.hostASNs(prev) {
					m.InSources[src]++
				}
			}
		}
	})
	for d := range original {
		if !seenOnTo[d] {
			m.Gone++
		}
	}
	return m
}
