package spectrum

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUHFFromTV(t *testing.T) {
	cases := []struct {
		tv   int
		want UHF
		ok   bool
	}{
		{21, 0, true},
		{36, 15, true},
		{37, 0, false},
		{38, 16, true},
		{51, 29, true},
		{20, 0, false},
		{52, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := UHFFromTV(c.tv)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("UHFFromTV(%d) = %v, %v; want %v, %v", c.tv, got, ok, c.want, c.ok)
		}
	}
}

func TestUHFTVRoundTrip(t *testing.T) {
	for u := UHF(0); u < NumUHF; u++ {
		tv := u.TV()
		if tv == ReservedTVChannel {
			t.Fatalf("UHF %d maps to reserved TV channel 37", u)
		}
		back, ok := UHFFromTV(tv)
		if !ok || back != u {
			t.Fatalf("round trip failed: %d -> tv %d -> %d, %v", u, tv, back, ok)
		}
	}
}

func TestUHFCenterFrequencies(t *testing.T) {
	u0, _ := UHFFromTV(21)
	if got := u0.CenterMHz(); got != 515 {
		t.Errorf("channel 21 center = %v, want 515", got)
	}
	u51, _ := UHFFromTV(51)
	if got := u51.CenterMHz(); got != 695 {
		t.Errorf("channel 51 center = %v, want 695", got)
	}
	// The reserved channel 37 leaves a real frequency gap.
	u36, _ := UHFFromTV(36)
	u38, _ := UHFFromTV(38)
	if u38.CenterMHz()-u36.CenterMHz() != 2*UHFWidthMHz {
		t.Errorf("gap across channel 37: %v - %v", u38.CenterMHz(), u36.CenterMHz())
	}
}

func TestWidthSpan(t *testing.T) {
	if W5.Span() != 1 || W10.Span() != 3 || W20.Span() != 5 {
		t.Errorf("spans = %d,%d,%d; want 1,3,5", W5.Span(), W10.Span(), W20.Span())
	}
}

func TestChannelEnumerationCounts(t *testing.T) {
	// Section 4.2: 30 5MHz channels, 28 10MHz, 26 20MHz = 84 total.
	if n := len(ChannelsOfWidth(W5)); n != 30 {
		t.Errorf("5MHz channels = %d, want 30", n)
	}
	if n := len(ChannelsOfWidth(W10)); n != 28 {
		t.Errorf("10MHz channels = %d, want 28", n)
	}
	if n := len(ChannelsOfWidth(W20)); n != 26 {
		t.Errorf("20MHz channels = %d, want 26", n)
	}
	if n := len(AllChannels()); n != 84 {
		t.Errorf("all channels = %d, want 84", n)
	}
}

func TestChannelBoundsAndContains(t *testing.T) {
	c := Chan(10, W20)
	lo, hi := c.Bounds()
	if lo != 8 || hi != 12 {
		t.Fatalf("bounds = %d,%d; want 8,12", lo, hi)
	}
	for u := UHF(8); u <= 12; u++ {
		if !c.Contains(u) {
			t.Errorf("channel should contain %d", u)
		}
	}
	if c.Contains(7) || c.Contains(13) {
		t.Error("channel contains out-of-span UHF channels")
	}
	if got := len(c.Span()); got != 5 {
		t.Errorf("span length = %d, want 5", got)
	}
}

func TestChannelValidity(t *testing.T) {
	if !Chan(0, W5).Valid() {
		t.Error("(0, 5MHz) should be valid")
	}
	if Chan(0, W10).Valid() {
		t.Error("(0, 10MHz) spans below the band; should be invalid")
	}
	if Chan(NumUHF-1, W20).Valid() {
		t.Error("(29, 20MHz) spans above the band; should be invalid")
	}
	if Chan(2, Width(7)).Valid() {
		t.Error("unsupported width should be invalid")
	}
}

func TestChannelOverlaps(t *testing.T) {
	a := Chan(10, W20) // 8..12
	cases := []struct {
		b    Channel
		want bool
	}{
		{Chan(10, W20), true},
		{Chan(12, W5), true},
		{Chan(13, W5), false},
		{Chan(14, W10), false},
		{Chan(13, W10), true}, // 12..14 overlaps at 12
		{Chan(5, W5), false},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v", c.b)
		}
	}
}

func TestMapBasics(t *testing.T) {
	var m Map
	if m.CountFree() != NumUHF {
		t.Fatal("zero map should be all free")
	}
	m = m.SetOccupied(3).SetOccupied(7)
	if !m.Occupied(3) || !m.Occupied(7) || m.Occupied(4) {
		t.Error("occupancy bits wrong")
	}
	if m.CountOccupied() != 2 {
		t.Errorf("occupied = %d, want 2", m.CountOccupied())
	}
	m = m.SetFree(3)
	if m.Occupied(3) {
		t.Error("SetFree failed")
	}
	if m.Occupied(-1) || m.Occupied(NumUHF) {
		t.Error("out of range channels must read as not occupied")
	}
}

func TestMapOrHamming(t *testing.T) {
	a := MapFromBits(0b1010)
	b := MapFromBits(0b0110)
	if got := a.Or(b).Bits(); got != 0b1110 {
		t.Errorf("or = %b", got)
	}
	if got := a.Hamming(b); got != 2 {
		t.Errorf("hamming = %d, want 2", got)
	}
	if got := a.Hamming(a); got != 0 {
		t.Errorf("self hamming = %d", got)
	}
}

func TestChannelFree(t *testing.T) {
	m := MapFromBits(0) // all free
	if !m.ChannelFree(Chan(10, W20)) {
		t.Error("channel should be free on empty map")
	}
	m = m.SetOccupied(12)
	if m.ChannelFree(Chan(10, W20)) {
		t.Error("channel overlapping occupied UHF channel should not be free")
	}
	if !m.ChannelFree(Chan(10, W10)) { // spans 9..11, 12 is outside
		t.Error("non-overlapping narrower channel should be free")
	}
	if m.ChannelFree(Channel{Center: 0, Width: W20}) {
		t.Error("invalid channel must never be free")
	}
}

func TestFragments(t *testing.T) {
	// Occupy everything except 4..9 and 20..21.
	m := MapFromBits(^uint32(0))
	for u := UHF(4); u <= 9; u++ {
		m = m.SetFree(u)
	}
	m = m.SetFree(20).SetFree(21)
	frags := m.Fragments()
	if len(frags) != 2 {
		t.Fatalf("fragments = %v, want 2", frags)
	}
	if frags[0].Lo != 4 || frags[0].Hi != 9 || frags[0].Channels() != 6 {
		t.Errorf("first fragment = %+v", frags[0])
	}
	if frags[1].Lo != 20 || frags[1].Hi != 21 {
		t.Errorf("second fragment = %+v", frags[1])
	}
	w, ok := m.WidestFragment()
	if !ok || w.Channels() != 6 {
		t.Errorf("widest = %+v, %v", w, ok)
	}
}

func TestFragmentsSplitAtReservedGap(t *testing.T) {
	// Indices 15 (TV36) and 16 (TV38) are adjacent in index space but
	// separated by the reserved channel 37 in frequency, so an all-free
	// map must report two fragments.
	var m Map
	frags := m.Fragments()
	if len(frags) != 2 {
		t.Fatalf("all-free map fragments = %v, want 2 (split at TV37)", frags)
	}
	if frags[0].Lo != 0 || frags[0].Hi != 15 || frags[1].Lo != 16 || frags[1].Hi != 29 {
		t.Errorf("fragments = %v", frags)
	}
}

func TestWidestFragmentEmpty(t *testing.T) {
	m := MapFromBits(^uint32(0))
	if _, ok := m.WidestFragment(); ok {
		t.Error("fully occupied map should have no widest fragment")
	}
}

func TestAvailableChannels(t *testing.T) {
	m := MapFromBits(^uint32(0))
	for u := UHF(5); u <= 9; u++ { // exactly one 5-channel fragment
		m = m.SetFree(u)
	}
	avail := m.AvailableChannels()
	// 5 five-MHz, 3 ten-MHz, 1 twenty-MHz.
	count := map[Width]int{}
	for _, c := range avail {
		count[c.Width]++
		if !m.ChannelFree(c) {
			t.Errorf("channel %v reported available but not free", c)
		}
	}
	if count[W5] != 5 || count[W10] != 3 || count[W20] != 1 {
		t.Errorf("counts = %v, want 5/3/1", count)
	}
}

func TestMapStringParse(t *testing.T) {
	m := MapFromBits(0).SetOccupied(0).SetOccupied(29)
	s := m.String()
	if len(s) != NumUHF || s[0] != 'X' || s[29] != 'X' || s[1] != '.' {
		t.Errorf("string = %q", s)
	}
	back, err := ParseMap(s)
	if err != nil || back != m {
		t.Errorf("parse round trip: %v, %v", back, err)
	}
	if _, err := ParseMap("short"); err == nil {
		t.Error("short string should fail")
	}
}

// Property: Or is commutative, associative, and only adds occupancy.
func TestQuickOrProperties(t *testing.T) {
	f := func(a, b, c uint32) bool {
		ma, mb, mc := MapFromBits(a), MapFromBits(b), MapFromBits(c)
		if ma.Or(mb) != mb.Or(ma) {
			return false
		}
		if ma.Or(mb).Or(mc) != ma.Or(mb.Or(mc)) {
			return false
		}
		u := ma.Or(mb)
		return u.CountOccupied() >= ma.CountOccupied() &&
			u.CountOccupied() >= mb.CountOccupied()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Hamming is a metric (symmetry, identity, triangle inequality).
func TestQuickHammingMetric(t *testing.T) {
	f := func(a, b, c uint32) bool {
		ma, mb, mc := MapFromBits(a), MapFromBits(b), MapFromBits(c)
		if ma.Hamming(mb) != mb.Hamming(ma) {
			return false
		}
		if ma.Hamming(ma) != 0 {
			return false
		}
		return ma.Hamming(mc) <= ma.Hamming(mb)+mb.Hamming(mc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every available channel's span is entirely free, and every
// valid channel whose span is free is reported available.
func TestQuickAvailableChannelsComplete(t *testing.T) {
	f := func(bits uint32) bool {
		m := MapFromBits(bits)
		avail := map[Channel]bool{}
		for _, c := range m.AvailableChannels() {
			avail[c] = true
		}
		for _, c := range AllChannels() {
			if m.ChannelFree(c) != avail[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fragments partition the free channels, are maximal, sorted,
// and never cross the reserved-37 frequency gap.
func TestQuickFragmentsPartition(t *testing.T) {
	gap, _ := UHFFromTV(ReservedTVChannel + 1)
	f := func(bits uint32) bool {
		m := MapFromBits(bits)
		seen := 0
		prevHi := UHF(-1)
		for _, fr := range m.Fragments() {
			if fr.Lo <= prevHi || fr.Lo > fr.Hi {
				return false
			}
			if fr.Lo < gap && fr.Hi >= gap {
				return false // crosses the frequency gap
			}
			for u := fr.Lo; u <= fr.Hi; u++ {
				if !m.Free(u) {
					return false
				}
				seen++
			}
			// Maximality: the neighbours must be occupied or edges.
			if fr.Lo > 0 && fr.Lo != gap && m.Free(fr.Lo-1) {
				return false
			}
			if fr.Hi < NumUHF-1 && fr.Hi != gap-1 && m.Free(fr.Hi+1) {
				return false
			}
			prevHi = fr.Hi
		}
		return seen == m.CountFree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: channel bounds are symmetric around the center and match Span.
func TestQuickChannelBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		c := Chan(UHF(rng.Intn(NumUHF)), Widths[rng.Intn(len(Widths))])
		lo, hi := c.Bounds()
		if int(c.Center-lo) != int(hi-c.Center) {
			t.Fatalf("asymmetric bounds for %v", c)
		}
		if int(hi-lo)+1 != c.Width.Span() {
			t.Fatalf("span mismatch for %v", c)
		}
	}
}

// TestStringsMatchFmt: the UHF, Width and Channel texts keep their
// former fmt renderings ("uhf%d" of the TV number, "%dMHz", and
// "(%s, %s)"), inside and outside the band.
func TestStringsMatchFmt(t *testing.T) {
	ws := []Width{W5, W10, W20, 0, -5, 7}
	for u := UHF(-3); u < NumUHF+3; u++ {
		if got, want := u.String(), fmt.Sprintf("uhf%d", u.TV()); got != want {
			t.Fatalf("UHF %d: %q, want %q", int(u), got, want)
		}
		for _, w := range ws {
			c := Chan(u, w)
			if got, want := c.String(), fmt.Sprintf("(%s, %s)", fmt.Sprintf("uhf%d", u.TV()), fmt.Sprintf("%dMHz", int(w))); got != want {
				t.Fatalf("channel %+v: %q, want %q", c, got, want)
			}
		}
	}
}
