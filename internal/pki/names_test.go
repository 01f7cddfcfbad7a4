package pki

import (
	"math/rand"
	"slices"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/idn"
)

// namesMatchRussianTLD is the Names()-based footnote-6 predicate that
// MatchesRussianTLD replaced, kept as its oracle.
func namesMatchRussianTLD(c *Certificate) bool {
	for _, n := range c.Names() {
		tld := dns.TLD(dns.Canonical(n))
		if tld == "ru" || tld == idn.RFTLDASCII {
			return true
		}
	}
	return false
}

// certNamePool mixes the shapes a decoded certificate can carry: case
// variants, with and without the root dot, IDN TLDs in either case,
// non-Russian names that contain "ru" elsewhere, and degenerate names.
var certNamePool = []string{
	"", ".", "..", "ru", "RU", "ru.", "ru..", "Ru.",
	"example.ru.", "Example.RU", "EXAMPLE.RU.", "mail.example.ru",
	"*.shop.ru.", "*.SHOP.Ru",
	"xn--e1afmkfd.xn--p1ai.", "XN--E1AFMKFD.XN--P1AI", "пример.xn--P1ai.",
	"example.com.", "ru.example.com.", "example.ru.com", "EXAMPLE.COM",
	"a..b.", "rus.", "r.u.", "xn--p1ai.example.org.",
	"bank.xn--p1aİ.", // strings.ToLower maps U+0130 to ASCII 'i'
	"pay.ʀu.",        // U+0280 LATIN LETTER SMALL CAPITAL R lowers to itself, not 'r'
	"bad.\xffru.",
}

// randomCert builds a certificate whose names are drawn from the pool,
// bypassing Issue's normalization so case and dot variants survive.
// Duplicate SANs and CN-equals-SAN happen by construction.
func randomCert(rng *rand.Rand) *Certificate {
	pick := func() string { return certNamePool[rng.Intn(len(certNamePool))] }
	c := &Certificate{}
	if rng.Intn(4) != 0 {
		c.SubjectCN = pick()
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		if len(c.SANs) > 0 && rng.Intn(4) == 0 {
			c.SANs = append(c.SANs, c.SANs[rng.Intn(len(c.SANs))])
			continue
		}
		c.SANs = append(c.SANs, pick())
	}
	return c
}

func TestMatchesRussianTLDAgreesWithNamesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	matched := 0
	for i := 0; i < 5000; i++ {
		c := randomCert(rng)
		got, want := c.MatchesRussianTLD(), namesMatchRussianTLD(c)
		if got != want {
			t.Fatalf("MatchesRussianTLD(cn=%q sans=%q) = %v, oracle %v", c.SubjectCN, c.SANs, got, want)
		}
		if got {
			matched++
		}
	}
	if matched == 0 || matched == 5000 {
		t.Fatalf("generated certificates all classify the same way (%d matched)", matched)
	}
}

func TestRussianTLDAgreesWithCanonicalTLD(t *testing.T) {
	for _, n := range certNamePool {
		want := ""
		if tld := dns.TLD(dns.Canonical(n)); tld == "ru" || tld == idn.RFTLDASCII {
			want = tld
		}
		if got := RussianTLD(n); got != want {
			t.Errorf("RussianTLD(%q) = %q, want %q", n, got, want)
		}
	}
}

func TestAnyNameVisitsCNAndSANs(t *testing.T) {
	c := &Certificate{SubjectCN: "cn.ru.", SANs: []string{"a.com.", "b.com.", "a.com."}}
	var seen []string
	c.AnyName(func(n string) bool { seen = append(seen, n); return false })
	if want := []string{"cn.ru.", "a.com.", "b.com.", "a.com."}; !slices.Equal(seen, want) {
		t.Fatalf("visited %q, want %q", seen, want)
	}
	seen = seen[:0]
	(&Certificate{SANs: []string{"x.ru."}}).AnyName(func(n string) bool { seen = append(seen, n); return false })
	if len(seen) != 1 || seen[0] != "x.ru." {
		t.Fatalf("empty CN: visited %q, want only the SAN", seen)
	}
	if !c.AnyName(func(n string) bool { return n == "b.com." }) {
		t.Fatal("AnyName missed a SAN")
	}
}

func TestMatchesRussianTLDAllocationFree(t *testing.T) {
	ca := NewCA(3, "T", nil, 90)
	for _, names := range [][]string{
		{"www.example.com", "shop.example.com", "example.ru"},
		{"example.com", "mail.example.com"},
	} {
		c, err := ca.Issue(0, names...)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.MatchesRussianTLD() }); allocs != 0 {
			t.Errorf("MatchesRussianTLD(%v) allocates %.1f times per call, want 0", names, allocs)
		}
	}
}
