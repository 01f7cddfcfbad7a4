package analysis

import (
	"sort"

	"whereru/internal/ct"
	"whereru/internal/idn"
	"whereru/internal/pki"
	"whereru/internal/sanctions"
	"whereru/internal/scan"
	"whereru/internal/simtime"
)

// IssuerCount pairs a CA organization with a certificate count.
type IssuerCount struct {
	Org   string
	Count int
}

// PeriodIssuance is one period's issuance breakdown (one column group of
// Table 1).
type PeriodIssuance struct {
	Period simtime.Period
	Days   int
	Total  int
	// Issuers is sorted by count, descending.
	Issuers []IssuerCount
}

// PerDay returns the average certificates per day in the period.
func (p PeriodIssuance) PerDay() float64 {
	if p.Days == 0 {
		return 0
	}
	return float64(p.Total) / float64(p.Days)
}

// Share returns an issuer's share of the period's issuance, in percent.
func (p PeriodIssuance) Share(org string) float64 {
	for _, ic := range p.Issuers {
		if ic.Org == org {
			return pct(ic.Count, p.Total)
		}
	}
	return 0
}

// russianCert reports whether a certificate secures a .ru/.рф name
// (the paper's footnote-6 match criterion).
func russianCert(c *pki.Certificate) bool { return c.MatchesRussianTLD() }

// IssuanceByPeriod computes Table 1 from the CT log: certificates for
// Russian domains per period, per issuing CA.
func IssuanceByPeriod(log *ct.Log) []PeriodIssuance {
	byPeriod := map[simtime.Period]map[string]int{}
	for _, e := range log.Scan(0, log.Size(), russianCert) {
		if e.Timestamp < simtime.CTWindowStart || e.Timestamp > simtime.CTWindowEnd {
			continue
		}
		p := simtime.PeriodOf(e.Timestamp)
		if byPeriod[p] == nil {
			byPeriod[p] = make(map[string]int)
		}
		byPeriod[p][e.Cert.IssuerOrg]++
	}
	lengths := map[simtime.Period]int{
		simtime.PreConflict:   simtime.ConflictStart.Sub(simtime.CTWindowStart),
		simtime.PreSanctions:  simtime.SanctionsInEffect.Sub(simtime.ConflictStart),
		simtime.PostSanctions: simtime.CTWindowEnd.Sub(simtime.SanctionsInEffect) + 1,
	}
	out := make([]PeriodIssuance, 0, 3)
	for _, period := range []simtime.Period{simtime.PreConflict, simtime.PreSanctions, simtime.PostSanctions} {
		pi := PeriodIssuance{Period: period, Days: lengths[period]}
		for org, n := range byPeriod[period] {
			pi.Issuers = append(pi.Issuers, IssuerCount{Org: org, Count: n})
			pi.Total += n
		}
		sort.Slice(pi.Issuers, func(i, j int) bool {
			if pi.Issuers[i].Count != pi.Issuers[j].Count {
				return pi.Issuers[i].Count > pi.Issuers[j].Count
			}
			return pi.Issuers[i].Org < pi.Issuers[j].Org
		})
		out = append(out, pi)
	}
	return out
}

// Timeline is Figure 8's data for one CA: the set of days with at least
// one new certificate for a Russian domain.
type Timeline struct {
	Org        string
	Total      int
	ActiveDays map[simtime.Day]bool
	// LastActive is the final issuance day in the window.
	LastActive simtime.Day
}

// StoppedBy reports whether the CA shows no issuance on or after day
// (used to count "six of the ten top CAs stopped issuing altogether").
func (t Timeline) StoppedBy(day simtime.Day) bool { return t.LastActive < day }

// IssuanceTimelines computes Figure 8 for the top-k CAs by volume.
func IssuanceTimelines(log *ct.Log, k int) []Timeline {
	byOrg := map[string]*Timeline{}
	for _, e := range log.Scan(0, log.Size(), russianCert) {
		if e.Timestamp < simtime.CTWindowStart || e.Timestamp > simtime.CTWindowEnd {
			continue
		}
		t := byOrg[e.Cert.IssuerOrg]
		if t == nil {
			t = &Timeline{Org: e.Cert.IssuerOrg, ActiveDays: make(map[simtime.Day]bool)}
			byOrg[e.Cert.IssuerOrg] = t
		}
		t.Total++
		t.ActiveDays[e.Timestamp] = true
		if e.Timestamp > t.LastActive {
			t.LastActive = e.Timestamp
		}
	}
	out := make([]Timeline, 0, len(byOrg))
	for _, t := range byOrg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Org < out[j].Org
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// RevocationRow is one CA's row of Table 2.
type RevocationRow struct {
	Org string
	// Issued/Revoked cover certificates for .ru/.рф domains whose
	// validity ended after 2022-02-25 (the paper's criterion).
	Issued  int
	Revoked int
	// SancIssued/SancRevoked restrict to sanctioned domains.
	SancIssued  int
	SancRevoked int
}

// RevokedPct returns the overall revocation rate in percent.
func (r RevocationRow) RevokedPct() float64 { return pct(r.Revoked, r.Issued) }

// SancRevokedPct returns the sanctioned-domain revocation rate.
func (r RevocationRow) SancRevokedPct() float64 { return pct(r.SancRevoked, r.SancIssued) }

// CRLSource exposes per-CA revocation state; pki.Store satisfies it.
type CRLSource interface {
	CRL(issuerOrg string) *pki.CRL
}

// RevocationStats computes Table 2: per CA, Russian-domain certificates
// issued (validity ending after Feb 25, 2022) and revoked, with the
// sanctioned-domain subset, ranked by revocation count.
func RevocationStats(log *ct.Log, crls CRLSource, sanc *sanctions.List, topK int) []RevocationRow {
	cutoff := simtime.Date(2022, 2, 25)
	rows := map[string]*RevocationRow{}
	status := map[string]*pki.CRL{}
	for _, e := range log.Scan(0, log.Size(), russianCert) {
		c := e.Cert
		if c.NotAfter <= cutoff {
			continue
		}
		row := rows[c.IssuerOrg]
		if row == nil {
			row = &RevocationRow{Org: c.IssuerOrg}
			rows[c.IssuerOrg] = row
		}
		crl := status[c.IssuerOrg]
		if crl == nil {
			crl = crls.CRL(c.IssuerOrg)
			status[c.IssuerOrg] = crl
		}
		revoked := crl.Status(c.Serial, simtime.CTWindowEnd) == pki.OCSPRevoked
		sanctioned := certSanctioned(c, sanc)
		row.Issued++
		if revoked {
			row.Revoked++
		}
		if sanctioned {
			row.SancIssued++
			if revoked {
				row.SancRevoked++
			}
		}
	}
	out := make([]RevocationRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Revoked != out[j].Revoked {
			return out[i].Revoked > out[j].Revoked
		}
		return out[i].Org < out[j].Org
	})
	if topK > 0 && topK < len(out) {
		out = out[:topK]
	}
	return out
}

// certSanctioned reports whether any name the certificate secures is
// covered by the sanctions list.
func certSanctioned(c *pki.Certificate, sanc *sanctions.List) bool {
	return c.AnyName(sanc.ContainsEver)
}

// RussianCAReport is the §4.3 analysis of the Russian Trusted Root CA,
// computed from scan data (the CA does not log to CT).
type RussianCAReport struct {
	// UniqueCerts is the number of distinct certificates observed.
	UniqueCerts int
	// RuDomains / RFDomains are distinct .ru / .рф names secured.
	RuDomains int
	RFDomains int
	// OtherTLDNames are secured names under all other TLDs.
	OtherTLDNames int
	// SanctionedCerts is the count of certificates securing sanctioned
	// domains; SanctionedDomains the distinct domains covered.
	SanctionedCerts   int
	SanctionedDomains int
	// BackdropCerts counts unique certificates from all other CAs in the
	// same scans (the paper's ">800k" contrast).
	BackdropCerts int
}

// RussianCAImpact computes the §4.3 report from a scan archive.
func RussianCAImpact(archive *scan.Archive, sanc *sanctions.List) RussianCAReport {
	var rep RussianCAReport
	fromRTR := func(c *pki.Certificate) bool { return c.RootOrg == pki.RussianTrustedRootCA }
	ruSeen, rfSeen, otherSeen := map[string]bool{}, map[string]bool{}, map[string]bool{}
	sancSeen := map[string]bool{}
	for _, c := range archive.UniqueCerts(fromRTR) {
		rep.UniqueCerts++
		isSanc := false
		for _, name := range c.Names() {
			switch pki.RussianTLD(name) {
			case "ru":
				ruSeen[name] = true
			case idn.RFTLDASCII:
				rfSeen[name] = true
			default:
				otherSeen[name] = true
			}
			if e, ok := sanc.Match(name); ok {
				isSanc = true
				sancSeen[e.Domain] = true
			}
		}
		if isSanc {
			rep.SanctionedCerts++
		}
	}
	rep.RuDomains = len(ruSeen)
	rep.RFDomains = len(rfSeen)
	rep.OtherTLDNames = len(otherSeen)
	rep.SanctionedDomains = len(sancSeen)
	rep.BackdropCerts = len(archive.UniqueCerts(func(c *pki.Certificate) bool { return !fromRTR(c) }))
	return rep
}
