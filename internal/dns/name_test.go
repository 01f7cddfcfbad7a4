package dns

import "testing"

// labelsTLD is the Labels-based definition of TLD, kept as its oracle.
func labelsTLD(name string) string {
	labels := Labels(name)
	if len(labels) == 0 {
		return ""
	}
	return labels[len(labels)-1]
}

func TestTLD(t *testing.T) {
	cases := []struct{ name, want string }{
		{"", ""},
		{".", ""},
		{"ru", "ru"},
		{"ru.", "ru"},
		{"example.ru.", "ru"},
		{"a..b.", "b"},
		{"ru..", ""},
		{"..", ""},
		{"ns1.example.com.", "com"},
		{"WWW.Example.RU.", "RU"},
		{"xn--e1afmkfd.xn--p1ai", "xn--p1ai"},
	}
	for _, c := range cases {
		got := TLD(c.name)
		if got != c.want {
			t.Errorf("TLD(%q) = %q, want %q", c.name, got, c.want)
		}
		if oracle := labelsTLD(c.name); got != oracle {
			t.Errorf("TLD(%q) = %q, Labels-based definition gives %q", c.name, got, oracle)
		}
		if allocs := testing.AllocsPerRun(100, func() { TLD(c.name) }); allocs != 0 {
			t.Errorf("TLD(%q) allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}
