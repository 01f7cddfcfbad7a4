package analysis

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"whereru/internal/ct"
	"whereru/internal/pki"
	"whereru/internal/sanctions"
	"whereru/internal/scan"
	"whereru/internal/simtime"
)

// issue creates a logged certificate in the log at the given day.
func issue(t *testing.T, log *ct.Log, ca *pki.CA, day simtime.Day, name string) *pki.Certificate {
	t.Helper()
	c, err := ca.Issue(day, name)
	if err != nil {
		t.Fatal(err)
	}
	if c.Logged {
		if _, err := log.Append(c, day); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestIssuanceByPeriodBoundaries(t *testing.T) {
	log := ct.NewLog("t")
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)
	// One cert on the last pre-conflict day, one on the first conflict
	// day, one on the first post-sanctions day, one outside the window.
	issue(t, log, le, simtime.ConflictStart.Add(-1), "a.ru")
	issue(t, log, le, simtime.ConflictStart, "b.ru")
	issue(t, log, le, simtime.SanctionsInEffect, "c.ru")
	issue(t, log, le, simtime.CTWindowEnd.Add(5), "d.ru") // outside
	issue(t, log, le, simtime.ConflictStart, "e.com")     // not Russian

	periods := IssuanceByPeriod(log)
	if len(periods) != 3 {
		t.Fatalf("periods = %d", len(periods))
	}
	if periods[0].Total != 1 || periods[1].Total != 1 || periods[2].Total != 1 {
		t.Fatalf("totals = %d/%d/%d, want 1/1/1", periods[0].Total, periods[1].Total, periods[2].Total)
	}
	if periods[0].Period != simtime.PreConflict || periods[2].Period != simtime.PostSanctions {
		t.Fatal("period order wrong")
	}
	if periods[0].Days != 54 || periods[1].Days != 30 {
		t.Fatalf("period lengths = %d/%d, want 54/30", periods[0].Days, periods[1].Days)
	}
	if got := periods[0].Share(pki.LetsEncrypt); got != 100 {
		t.Errorf("share = %v", got)
	}
	if got := periods[0].Share("Nobody"); got != 0 {
		t.Errorf("absent share = %v", got)
	}
	if periods[0].PerDay() <= 0 {
		t.Error("PerDay must be positive")
	}
}

func TestIssuanceTimelinesStoppedBy(t *testing.T) {
	log := ct.NewLog("t")
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)
	dc := pki.NewCA(2, pki.DigiCert, nil, 365)
	for d := simtime.CTWindowStart; d <= simtime.CTWindowEnd; d = d.Add(10) {
		issue(t, log, le, d, fmt.Sprintf("le%d.ru", d))
		if d < simtime.ConflictStart {
			issue(t, log, dc, d, fmt.Sprintf("dc%d.ru", d))
		}
	}
	tls := IssuanceTimelines(log, 10)
	if len(tls) != 2 || tls[0].Org != pki.LetsEncrypt {
		t.Fatalf("timelines = %+v", tls)
	}
	var dcTL Timeline
	for _, tl := range tls {
		if tl.Org == pki.DigiCert {
			dcTL = tl
		}
	}
	if !dcTL.StoppedBy(simtime.ConflictStart) {
		t.Error("DigiCert should have stopped by the conflict start")
	}
	if tls[0].StoppedBy(simtime.Date(2022, 5, 1)) {
		t.Error("Let's Encrypt should still be active in May")
	}
	// k bounds the result.
	if got := IssuanceTimelines(log, 1); len(got) != 1 {
		t.Errorf("k=1 → %d timelines", len(got))
	}
}

func TestRevocationStatsWindowAndRanking(t *testing.T) {
	log := ct.NewLog("t")
	store := pki.NewStore()
	sanc := sanctions.NewList()
	sanc.Add(sanctions.Entry{Domain: "bad.ru", Listed: simtime.Date(2022, 2, 25)})

	sectigo := pki.NewCA(5, pki.Sectigo, nil, 365)
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)

	// An expired-before-cutoff certificate must not count.
	old, _ := le.Issue(simtime.Date(2021, 10, 1), "old.ru")
	old.NotAfter = simtime.Date(2022, 2, 1)
	store.Add(old)
	log.Append(old, old.NotBefore)

	// Sanctioned cert, revoked.
	s1 := issue(t, log, sectigo, simtime.Date(2022, 1, 10), "bad.ru")
	store.Add(s1)
	store.Revoke(s1.Serial, simtime.Date(2022, 3, 1), pki.ReasonCessation)
	// Ordinary cert, kept.
	s2 := issue(t, log, le, simtime.Date(2022, 1, 12), "good.ru")
	store.Add(s2)

	rows := RevocationStats(log, store, sanc, 5)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Org != pki.Sectigo {
		t.Fatalf("ranking wrong: %+v", rows)
	}
	sec := rows[0]
	if sec.Issued != 1 || sec.Revoked != 1 || sec.SancIssued != 1 || sec.SancRevoked != 1 {
		t.Fatalf("sectigo row = %+v", sec)
	}
	if sec.RevokedPct() != 100 || sec.SancRevokedPct() != 100 {
		t.Fatalf("rates = %v/%v", sec.RevokedPct(), sec.SancRevokedPct())
	}
	leRow := rows[1]
	// The expired certificate was excluded: only good.ru counts.
	if leRow.Issued != 1 || leRow.Revoked != 0 || leRow.SancIssued != 0 {
		t.Fatalf("LE row = %+v", leRow)
	}
}

func TestRussianCAImpactEmptyArchive(t *testing.T) {
	rep := RussianCAImpact(scan.NewArchive(), sanctions.NewList())
	if rep.UniqueCerts != 0 || rep.BackdropCerts != 0 {
		t.Fatalf("empty archive report = %+v", rep)
	}
}

// namesCertSanctioned is the Names()-based certSanctioned that the
// allocation-free walk replaced, kept as its oracle.
func namesCertSanctioned(c *pki.Certificate, sanc *sanctions.List) bool {
	for _, n := range c.Names() {
		if sanc.ContainsEver(n) {
			return true
		}
	}
	return false
}

func TestCertSanctionedAgreesWithNamesOracle(t *testing.T) {
	sanc := sanctions.NewList()
	for _, d := range []string{"bad.ru", "Sanc.RU.", "xn--e1afmkfd.xn--p1ai", "evil.com"} {
		sanc.Add(sanctions.Entry{Domain: d, Listed: simtime.SanctionsInEffect})
	}
	pool := []string{
		"", ".", "bad.ru.", "BAD.RU", "www.Bad.Ru.", "sanc.ru", "notbad.ru.",
		"XN--E1AFMKFD.XN--P1AI.", "shop.xn--e1afmkfd.xn--p1ai", "evil.com.",
		"example.com", "EXAMPLE.RU.", "ru.", "bad.ru.example.com.",
	}
	rng := rand.New(rand.NewSource(7))
	hits := 0
	for i := 0; i < 3000; i++ {
		c := &pki.Certificate{}
		if rng.Intn(4) != 0 {
			c.SubjectCN = pool[rng.Intn(len(pool))]
		}
		for j, n := 0, rng.Intn(4); j < n; j++ {
			if len(c.SANs) > 0 && rng.Intn(3) == 0 {
				c.SANs = append(c.SANs, c.SANs[0])
				continue
			}
			c.SANs = append(c.SANs, pool[rng.Intn(len(pool))])
		}
		got, want := certSanctioned(c, sanc), namesCertSanctioned(c, sanc)
		if got != want {
			t.Fatalf("certSanctioned(cn=%q sans=%q) = %v, oracle %v", c.SubjectCN, c.SANs, got, want)
		}
		if got {
			hits++
		}
	}
	if hits == 0 || hits == 3000 {
		t.Fatalf("generated certificates all classify the same way (%d sanctioned)", hits)
	}
}

// TestRussianCAImpactMixedCase pins the TLD split to the footnote-6
// matcher's case folding: a certificate decoded with upper-case names
// still counts its .ru and .рф names as such, not as "other".
func TestRussianCAImpactMixedCase(t *testing.T) {
	c := &pki.Certificate{
		Serial: 1, IssuerOrg: pki.RussianTrustedRootCA, RootOrg: pki.RussianTrustedRootCA,
		SubjectCN: "WWW.Example.RU.",
		SANs:      []string{"WWW.Example.RU.", "Shop.XN--P1AI", "Example.COM."},
	}
	if !c.MatchesRussianTLD() {
		t.Fatal("footnote-6 matcher must fold case")
	}
	archive := scan.NewArchive()
	day := simtime.SanctionsInEffect
	archive.Record(day, []scan.Observation{{Addr: netip.MustParseAddr("192.0.2.1"), Day: day, Chain: []*pki.Certificate{c}}})
	sanc := sanctions.NewList()
	sanc.Add(sanctions.Entry{Domain: "example.ru", Listed: day})

	rep := RussianCAImpact(archive, sanc)
	want := RussianCAReport{
		UniqueCerts: 1, RuDomains: 1, RFDomains: 1, OtherTLDNames: 1,
		SanctionedCerts: 1, SanctionedDomains: 1,
	}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
}
