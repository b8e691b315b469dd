package ternary

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/pred"
)

func tst(f, v string) pred.Test { return pred.Test{Field: pred.Field(f), Value: v} }

func TestRangeToPrefixesCorners(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		bits   int
		want   []Prefix
	}{
		// Full domain: one zero-length prefix.
		{0, 65535, 16, []Prefix{{0, 0}}},
		// Singleton: one full-length prefix.
		{1, 1, 16, []Prefix{{1, 16}}},
		{0, 0, 16, []Prefix{{0, 16}}},
		// Aligned block: one prefix.
		{1024, 2047, 16, []Prefix{{1024, 6}}},
		// Unaligned start: singleton then block.
		{3, 7, 16, []Prefix{{3, 16}, {4, 14}}},
		// Top of the domain.
		{65535, 65535, 16, []Prefix{{65535, 16}}},
		{32768, 65535, 16, []Prefix{{32768, 1}}},
		// Small field.
		{0, 255, 8, []Prefix{{0, 0}}},
	}
	for _, c := range cases {
		got := RangeToPrefixes(c.lo, c.hi, c.bits)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("RangeToPrefixes(%d, %d, %d) = %v, want %v", c.lo, c.hi, c.bits, got, c.want)
		}
		if n := CountPrefixes(c.lo, c.hi, c.bits); n != len(c.want) {
			t.Errorf("CountPrefixes(%d, %d, %d) = %d, want %d", c.lo, c.hi, c.bits, n, len(c.want))
		}
	}
	// Inverted and out-of-domain ranges produce nothing.
	if got := RangeToPrefixes(5, 3, 16); len(got) != 0 {
		t.Errorf("inverted range expanded to %v", got)
	}
	if got := RangeToPrefixes(0, 1<<16, 16); len(got) != 0 {
		t.Errorf("out-of-domain range expanded to %v", got)
	}
}

// Property: the prefix cover is exact — every value in [lo, hi] matches
// exactly one prefix, every value outside matches none.
func TestRangeToPrefixesCoverExact(t *testing.T) {
	cases := [][2]uint64{{0, 0}, {3, 7}, {1, 254}, {80, 200}, {100, 100}, {0, 255}, {128, 255}, {127, 128}}
	for _, c := range cases {
		ps := RangeToPrefixes(c[0], c[1], 8)
		for v := uint64(0); v < 256; v++ {
			hits := 0
			for _, p := range ps {
				mask := prefixMask(p.Len, 8)
				if v&mask == p.Value {
					hits++
				}
			}
			want := 0
			if v >= c[0] && v <= c[1] {
				want = 1
			}
			if hits != want {
				t.Fatalf("range [%d,%d]: value %d matched %d prefixes, want %d (cover %v)", c[0], c[1], v, hits, want, ps)
			}
		}
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		f      string
		s      string
		lo, hi uint64
		bad    bool
	}{
		{"eth.src", "00:00:00:00:00:0a", 10, 10, false},
		{"eth.dst", "ff:ff:ff:ff:ff:ff", 0xffffffffffff, 0xffffffffffff, false},
		{"eth.src", "0a:0b", 0, 0, true},
		{"ip.src", "10.0.0.1", 10<<24 | 1, 10<<24 | 1, false},
		{"ip.dst", "1.2.3", 0, 0, true},
		{"ip.proto", "tcp", 6, 6, false},
		{"ip.proto", "udp", 17, 17, false},
		{"ip.proto", "6", 6, 6, false},
		{"eth.typ", "0x800", 0x800, 0x800, false},
		{"tcp.dst", "80", 80, 80, false},
		{"tcp.dst", "80-443", 80, 443, false},
		{"udp.src", "1000-2000", 1000, 2000, false},
		{"tcp.dst", "443-80", 0, 0, true}, // empty range
		{"ip.tos", "1-3", 0, 0, true},     // ranges only on port fields
		{"vlan.id", "5000", 0, 0, true},   // exceeds 12 bits
		{"tcp.dst", "70000", 0, 0, true},  // exceeds 16 bits
		{"payload", "x", 0, 0, true},      // no ternary encoding
		{"bogus.field", "1", 0, 0, true},  // unknown field
		{"tcp.dst", "eighty", 0, 0, true}, // not a number
	}
	for _, c := range cases {
		lo, hi, err := ParseValue(pred.Field(c.f), c.s)
		if c.bad {
			if err == nil {
				t.Errorf("ParseValue(%s, %q): expected error, got (%d, %d)", c.f, c.s, lo, hi)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseValue(%s, %q): %v", c.f, c.s, err)
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("ParseValue(%s, %q) = (%d, %d), want (%d, %d)", c.f, c.s, lo, hi, c.lo, c.hi)
		}
	}
}

func TestExpandBasics(t *testing.T) {
	// True: one match-all row.
	rows, err := Expand(pred.TruePred{}, Options{})
	if err != nil || len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("Expand(true) = %v, %v", rows, err)
	}
	// False: no rows.
	rows, err = Expand(pred.FalsePred{}, Options{})
	if err != nil || len(rows) != 0 {
		t.Fatalf("Expand(false) = %v, %v", rows, err)
	}
	// Single exact test: one full-mask row.
	rows, err = Expand(tst("tcp.dst", "80"), Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("Expand(tcp.dst=80) = %v, %v", rows, err)
	}
	if got := rows[0].String(); got != "tcp.dst=0x0050/0xffff" {
		t.Errorf("row = %q", got)
	}
	// Contradictory pins drop the cube.
	p := pred.Conj(tst("tcp.dst", "80"), tst("tcp.dst", "443"))
	rows, err = Expand(p, Options{})
	if err != nil || len(rows) != 0 {
		t.Fatalf("contradiction = %v, %v", rows, err)
	}
	// Contradictory exact-vs-range intersection.
	p = pred.Conj(tst("tcp.dst", "80"), tst("tcp.dst", "100-200"))
	rows, err = Expand(p, Options{})
	if err != nil || len(rows) != 0 {
		t.Fatalf("exact outside range = %v, %v", rows, err)
	}
	// Two distinct same-field values in one conjunction are unsatisfiable
	// under pred's string-equality semantics (PositiveCubes drops the
	// cube), even when the value strings denote overlapping ranges — the
	// ternary layer inherits the classifier's semantics, it does not
	// reinterpret them.
	p = pred.Conj(tst("tcp.dst", "80-120"), tst("tcp.dst", "100-200"))
	rows, err = Expand(p, Options{SupportsRange: true})
	if err != nil || len(rows) != 0 {
		t.Fatalf("same-field conjunction = %v, %v", rows, err)
	}
}

func TestExpandRangeModes(t *testing.T) {
	p := tst("tcp.dst", "3-7")
	native, err := Expand(p, Options{SupportsRange: true})
	if err != nil || len(native) != 1 || !native[0][0].Range {
		t.Fatalf("native range = %v, %v", native, err)
	}
	expanded, err := Expand(p, Options{})
	if err != nil || len(expanded) != 2 {
		t.Fatalf("prefix expansion = %v, %v", expanded, err)
	}
	for _, r := range expanded {
		if r[0].Range {
			t.Errorf("prefix mode emitted a range match: %v", r)
		}
	}
}

func TestExpandDedupAndSubsumption(t *testing.T) {
	// Duplicate cubes collapse.
	p := pred.Disj(tst("tcp.dst", "80"), tst("tcp.dst", "80"))
	rows, err := Expand(p, Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("dup cubes = %v, %v", rows, err)
	}
	// A cube subsumed by a wider one is eliminated: tcp.dst=80 or true.
	p = pred.Disj(tst("tcp.dst", "80"), pred.TruePred{})
	rows, err = Expand(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Order is deterministic (cube order), so the specific row comes
	// first and the match-all row cannot subsume it from behind; but the
	// match-all row itself must survive and the narrow one is NOT removed
	// (it precedes the wider). Verify the wider-first case instead:
	p = pred.Disj(pred.TruePred{}, tst("tcp.dst", "80"))
	rows, err = Expand(p, Options{})
	if err != nil || len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("subsumption = %v, %v", rows, err)
	}
	// Prefix-level subsumption: 0-65535 covers 80.
	p = pred.Disj(tst("tcp.dst", "0-65535"), tst("tcp.dst", "80"))
	rows, err = Expand(p, Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("prefix subsumption = %v, %v", rows, err)
	}
}

func TestExpandDeterministic(t *testing.T) {
	p := pred.Disj(
		pred.Conj(tst("ip.proto", "tcp"), tst("tcp.dst", "1000-2000")),
		pred.Conj(tst("ip.src", "10.0.0.1"), tst("ip.dst", "10.0.0.2")),
		tst("eth.typ", "2048"),
	)
	a, err := Expand(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is nondeterministic")
	}
}

func TestExpandRowLimit(t *testing.T) {
	// 4 range tests on distinct fields, each with a multi-prefix cover,
	// cross-multiply past a tiny MaxRows.
	p := pred.Conj(
		tst("tcp.src", "3-12000"),
		tst("tcp.dst", "3-12000"),
		tst("udp.src", "3-12000"),
		tst("udp.dst", "3-12000"),
	)
	_, err := Expand(p, Options{MaxRows: 100})
	if err == nil || !strings.Contains(err.Error(), "expansion too large") {
		t.Fatalf("expected row-limit error, got %v", err)
	}
	// With native ranges the same predicate is 1 row.
	rows, err := Expand(p, Options{MaxRows: 100, SupportsRange: true})
	if err != nil || len(rows) != 1 {
		t.Fatalf("native ranges = %v, %v", rows, err)
	}
}

// Expand must surface pred's own cube-expansion bound as an error, same
// as the symbolic classifier's maxExpandCubes overflow.
func TestExpandCubeOverflow(t *testing.T) {
	// 17 two-way disjunctions conjoined: 2^17 cubes > 1<<16.
	var parts []pred.Pred
	for i := 0; i < 17; i++ {
		parts = append(parts, pred.Disj(
			tst("tcp.dst", fmt.Sprint(i)),
			tst("udp.dst", fmt.Sprint(i)),
		))
	}
	_, err := Expand(pred.Conj(parts...), Options{})
	if !errors.Is(err, pred.ErrExpansionTooLarge) {
		t.Fatalf("expected cube-overflow error, got %v", err)
	}
	// The estimator prices the same predicate without materializing.
	n, err := Estimate(pred.Conj(parts...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1<<17 {
		t.Fatalf("Estimate = %d, want %d", n, 1<<17)
	}
}

func TestExpandUnencodableField(t *testing.T) {
	_, err := Expand(tst("payload", "attack"), Options{})
	if err == nil || !strings.Contains(err.Error(), "no ternary encoding") {
		t.Fatalf("expected encoding error, got %v", err)
	}
	if _, err := Estimate(tst("payload", "attack"), Options{}); err == nil {
		t.Fatal("Estimate accepted an unencodable field")
	}
}

// Estimate is an upper bound on the materialized row count, and exact on
// clean disjoint predicates.
func TestEstimateBounds(t *testing.T) {
	cases := []struct {
		p     pred.Pred
		opt   Options
		exact bool
	}{
		{tst("tcp.dst", "80"), Options{}, true},
		{tst("tcp.dst", "3-7"), Options{}, true}, // 2 prefixes
		{tst("tcp.dst", "3-7"), Options{SupportsRange: true}, true},
		{pred.Disj(tst("tcp.dst", "80"), tst("tcp.dst", "443")), Options{}, true},
		{pred.Conj(tst("ip.proto", "tcp"), tst("tcp.dst", "1-6")), Options{}, true},
		// Duplicate cubes: estimate counts both, expansion dedups.
		{pred.Disj(tst("tcp.dst", "80"), tst("tcp.dst", "80")), Options{}, false},
		// Unsatisfiable cube: counted by estimate, dropped by expansion.
		{pred.Conj(tst("tcp.dst", "80"), tst("tcp.dst", "443")), Options{}, false},
		// Negation: the negated literal costs 1 (its cube survives).
		{pred.Conj(tst("ip.proto", "tcp"), pred.Negate(tst("tcp.dst", "22"))), Options{}, true},
	}
	for i, c := range cases {
		rows, err := Expand(c.p, c.opt)
		if err != nil {
			t.Fatalf("case %d: Expand: %v", i, err)
		}
		est, err := Estimate(c.p, c.opt)
		if err != nil {
			t.Fatalf("case %d: Estimate: %v", i, err)
		}
		if est < len(rows) {
			t.Errorf("case %d: Estimate %d < %d rows — not an upper bound", i, est, len(rows))
		}
		if c.exact && est != len(rows) {
			t.Errorf("case %d: Estimate %d != %d rows (expected exact)", i, est, len(rows))
		}
	}
}

func TestRowCovers(t *testing.T) {
	all := Row(nil)
	port80, _ := Expand(tst("tcp.dst", "80"), Options{})
	proto, _ := Expand(pred.Conj(tst("ip.proto", "6"), tst("tcp.dst", "80")), Options{})
	if !all.Covers(port80[0]) {
		t.Error("match-all must cover tcp.dst=80")
	}
	if port80[0].Covers(all) {
		t.Error("tcp.dst=80 must not cover match-all")
	}
	if !port80[0].Covers(proto[0]) {
		t.Error("tcp.dst=80 must cover proto=6 ∧ tcp.dst=80")
	}
	if proto[0].Covers(port80[0]) {
		t.Error("narrower row must not cover wider")
	}
	// Range covers exact value inside it.
	rng, _ := Expand(tst("tcp.dst", "50-100"), Options{SupportsRange: true})
	if !rng[0].Covers(port80[0]) {
		t.Error("range 50-100 must cover tcp.dst=80")
	}
	out, _ := Expand(tst("tcp.dst", "200"), Options{})
	if rng[0].Covers(out[0]) {
		t.Error("range 50-100 must not cover tcp.dst=200")
	}
}

func TestWithExact(t *testing.T) {
	rows, _ := Expand(tst("tcp.dst", "80"), Options{})
	r, ok, err := rows[0].WithExact("eth.src", "00:00:00:00:00:01")
	if err != nil || !ok {
		t.Fatalf("WithExact: %v %v", ok, err)
	}
	if r.String() != "eth.src=0x000000000001/0xffffffffffff,tcp.dst=0x0050/0xffff" {
		t.Errorf("row = %q", r)
	}
	// Conflicting exact constraint empties the row.
	withSrc, _, _ := Row(nil).WithExact("eth.src", "00:00:00:00:00:01")
	if _, ok, _ := withSrc.WithExact("eth.src", "00:00:00:00:00:02"); ok {
		t.Error("conflicting MACs must be unsatisfiable")
	}
	// Same constraint is idempotent.
	same, ok, _ := withSrc.WithExact("eth.src", "00:00:00:00:00:01")
	if !ok || len(same) != 1 {
		t.Errorf("idempotent fold = %v %v", same, ok)
	}
}
