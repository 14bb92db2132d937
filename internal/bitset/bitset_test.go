package bitset

import "testing"

func TestSetBasics(t *testing.T) {
	s := Make(130)
	if len(s) != 3 {
		t.Fatalf("Words(130) -> %d words, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 3 {
		t.Fatal("Clear(64) failed")
	}
	if !s.Any() {
		t.Fatal("Any = false with bits set")
	}
	s.Reset()
	if s.Any() {
		t.Fatal("Any = true after Reset")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := Make(100), Make(100)
	a.Set(1)
	a.Set(70)
	a.Set(99)
	b.Set(70)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("Intersects missed shared bit 70")
	}
	if a.ContainsAll(b) != true {
		t.Fatal("ContainsAll({70}) should hold")
	}
	if b.ContainsAll(a) {
		t.Fatal("ContainsAll inverted")
	}
	if got := a.AndNotCount(b); got != 2 {
		t.Fatalf("AndNotCount = %d, want 2", got)
	}
	b.Set(2)
	if got, want := a.OrCount(b), 4; got != want || b.OrCount(a) != want {
		t.Fatalf("OrCount = %d/%d, want %d", got, b.OrCount(a), want)
	}
	b.Clear(2)
	c := Make(100)
	c.Or(a)
	c.Or(b)
	if c.Count() != 3 {
		t.Fatalf("Or union count = %d, want 3", c.Count())
	}
	d := Make(100)
	d.CopyFrom(a)
	if d.Count() != 3 || !d.Has(99) {
		t.Fatal("CopyFrom mismatch")
	}
	b.Clear(70)
	if a.Intersects(b) {
		t.Fatal("Intersects on disjoint sets")
	}
}

func TestMatrix(t *testing.T) {
	var m Matrix
	rows := func() int { return len(m.data) / m.words }
	m.Grow(4, 70)
	if rows() != 4 {
		t.Fatalf("rows = %d, want 4", rows())
	}
	m.Row(2).Set(69)
	if !m.Row(2).Has(69) || m.Row(1).Any() || m.Row(3).Any() {
		t.Fatal("row isolation broken")
	}
	// Shrinking reuse zeroes the active region.
	m.Grow(2, 64)
	if rows() != 2 || m.Row(0).Any() || m.Row(1).Any() {
		t.Fatal("Grow reuse did not zero")
	}
	// Growing past capacity reallocates.
	m.Grow(100, 128)
	if rows() != 100 || m.Row(99).Any() {
		t.Fatal("Grow reallocation broken")
	}
	m.Row(99).Set(127)
	if !m.Row(99).Has(127) {
		t.Fatal("bit lost after Grow")
	}
}
