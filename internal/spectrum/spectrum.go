package spectrum

import (
	"fmt"
	"strconv"
	"strings"
)

// NumUHF is the number of UHF channels available to portable white-space
// devices in the United States: channels 21 through 51, excluding
// channel 37 (reserved for radio astronomy).
const NumUHF = 30

// UHFWidthMHz is the width of a single UHF TV channel in MHz.
const UHFWidthMHz = 6

// FirstTVChannel is the lowest usable UHF TV channel number.
const FirstTVChannel = 21

// LastTVChannel is the highest usable UHF TV channel number.
const LastTVChannel = 51

// ReservedTVChannel is excluded from white-space use (radio astronomy).
const ReservedTVChannel = 37

// baseFreqMHz is the lower band edge of TV channel 21 in MHz.
const baseFreqMHz = 512

// UHF identifies one of the 30 usable UHF channels by index in [0, NumUHF).
// Index 0 is TV channel 21; the reserved channel 37 is skipped.
type UHF int

// UHFFromTV converts a US TV channel number (21..51, excluding 37) to a
// UHF index. It reports ok=false for channel numbers outside the
// white-space range.
func UHFFromTV(tv int) (u UHF, ok bool) {
	if tv < FirstTVChannel || tv > LastTVChannel || tv == ReservedTVChannel {
		return 0, false
	}
	u = UHF(tv - FirstTVChannel)
	if tv > ReservedTVChannel {
		u--
	}
	return u, true
}

// TV returns the US TV channel number (21..51, skipping 37) for u.
func (u UHF) TV() int {
	tv := int(u) + FirstTVChannel
	if tv >= ReservedTVChannel {
		tv++
	}
	return tv
}

// Valid reports whether u is a usable UHF channel index.
func (u UHF) Valid() bool { return u >= 0 && u < NumUHF }

// CenterMHz returns the center frequency of the UHF channel in MHz.
// Note that frequencies are computed from the TV channel number, so the
// 6 MHz gap left by reserved channel 37 is preserved.
func (u UHF) CenterMHz() float64 {
	return float64(baseFreqMHz + (u.TV()-FirstTVChannel)*UHFWidthMHz + UHFWidthMHz/2)
}

// String returns a human-readable name such as "uhf26" using the TV
// channel number.
func (u UHF) String() string { return string(u.AppendTo(nil)) }

// AppendTo appends u's String text to b.
func (u UHF) AppendTo(b []byte) []byte {
	return strconv.AppendInt(append(b, "uhf"...), int64(u.TV()), 10)
}

// Width is a WhiteFi channel width. The prototype hardware supports 5,
// 10 and 20 MHz; the type is open to other values but all enumeration
// helpers in this package use Widths.
type Width int

// Supported channel widths in MHz.
const (
	W5  Width = 5
	W10 Width = 10
	W20 Width = 20
)

// Widths lists the channel widths supported by the WhiteFi prototype,
// narrowest first.
var Widths = []Width{W5, W10, W20}

// MHz returns the width in MHz as a float.
func (w Width) MHz() float64 { return float64(w) }

// Span returns how many adjacent UHF channels a channel of width w
// occupies when centered on a UHF channel's center frequency: 1 for
// 5 MHz, 3 for 10 MHz, and 5 for 20 MHz.
func (w Width) Span() int {
	switch w {
	case W5:
		return 1
	case W10:
		return 3
	case W20:
		return 5
	}
	// Generic rule: a width of w MHz centered on a 6 MHz channel
	// reaches w/2 MHz to each side, covering ceil((w-6)/12) extra
	// channels per side.
	extra := (int(w) - UHFWidthMHz + 2*UHFWidthMHz - 1) / (2 * UHFWidthMHz)
	if extra < 0 {
		extra = 0
	}
	return 2*extra + 1
}

// Valid reports whether w is one of the supported WhiteFi widths.
func (w Width) Valid() bool { return w == W5 || w == W10 || w == W20 }

// String returns e.g. "10MHz".
func (w Width) String() string { return string(w.AppendTo(nil)) }

// AppendTo appends w's String text to b.
func (w Width) AppendTo(b []byte) []byte {
	return append(strconv.AppendInt(b, int64(w), 10), "MHz"...)
}

// Channel is a WhiteFi channel: a center UHF channel and a width.
// The zero value is the 0-width invalid channel.
type Channel struct {
	Center UHF   // UHF channel at the center frequency
	Width  Width // total width in MHz
}

// Chan is shorthand for constructing a Channel.
func Chan(center UHF, w Width) Channel { return Channel{Center: center, Width: w} }

// Valid reports whether the channel's full span lies inside the UHF band.
func (c Channel) Valid() bool {
	if !c.Center.Valid() || !c.Width.Valid() {
		return false
	}
	lo, hi := c.Bounds()
	return lo >= 0 && hi < NumUHF
}

// Bounds returns the lowest and highest UHF channel indices spanned by c
// (inclusive).
func (c Channel) Bounds() (lo, hi UHF) {
	half := UHF(c.Width.Span() / 2)
	return c.Center - half, c.Center + half
}

// Span returns the UHF channel indices covered by c, lowest first.
func (c Channel) Span() []UHF {
	lo, hi := c.Bounds()
	s := make([]UHF, 0, hi-lo+1)
	for u := lo; u <= hi; u++ {
		s = append(s, u)
	}
	return s
}

// Contains reports whether UHF channel u lies within c's span.
func (c Channel) Contains(u UHF) bool {
	lo, hi := c.Bounds()
	return u >= lo && u <= hi
}

// Overlaps reports whether the spans of c and d share any UHF channel.
func (c Channel) Overlaps(d Channel) bool {
	clo, chi := c.Bounds()
	dlo, dhi := d.Bounds()
	return clo <= dhi && dlo <= chi
}

// CenterMHz returns the channel's center frequency in MHz.
func (c Channel) CenterMHz() float64 { return c.Center.CenterMHz() }

// String returns e.g. "(uhf28, 20MHz)".
func (c Channel) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends c's String text to b.
func (c Channel) AppendTo(b []byte) []byte {
	b = c.Center.AppendTo(append(b, '('))
	return append(c.Width.AppendTo(append(b, ", "...)), ')')
}

// The channel tables are fixed by the band plan, so they are built once
// at package init and shared: the assignment layer enumerates them every
// Selector round, which used to rebuild the 84-entry slice per call.
var (
	allChannels     []Channel
	channelsByWidth map[Width][]Channel
)

func init() {
	channelsByWidth = make(map[Width][]Channel, len(Widths))
	for _, w := range Widths {
		half := UHF(w.Span() / 2)
		var out []Channel
		for u := half; u < NumUHF-half; u++ {
			out = append(out, Channel{Center: u, Width: w})
		}
		channelsByWidth[w] = out
		allChannels = append(allChannels, out...)
	}
}

// AllChannels enumerates every valid WhiteFi channel: 30 at 5 MHz, 28 at
// 10 MHz and 26 at 20 MHz (84 combinations, Section 4.2 of the paper).
// The returned slice is shared and must not be modified.
func AllChannels() []Channel { return allChannels }

// ChannelsOfWidth enumerates every valid WhiteFi channel of width w,
// lowest center first. The returned slice is shared and must not be
// modified; an unknown width yields nil.
func ChannelsOfWidth(w Width) []Channel { return channelsByWidth[w] }

// Map is a spectrum map: a bit-vector u_0..u_29 where bit i is set when
// UHF channel i is in use by an incumbent (TV station or wireless
// microphone) and must not be used. The zero value is an all-free map.
type Map struct {
	bits uint32
}

// MapFromBits builds a Map from the low NumUHF bits of v.
func MapFromBits(v uint32) Map { return Map{bits: v & ((1 << NumUHF) - 1)} }

// Bits returns the underlying bit-vector (bit i = UHF channel i occupied).
func (m Map) Bits() uint32 { return m.bits }

// Occupied reports whether UHF channel u is in use by an incumbent.
func (m Map) Occupied(u UHF) bool {
	return u.Valid() && m.bits&(1<<uint(u)) != 0
}

// Free reports whether UHF channel u is available for white-space use.
func (m Map) Free(u UHF) bool { return u.Valid() && !m.Occupied(u) }

// SetOccupied returns a copy of m with channel u marked incumbent-occupied.
func (m Map) SetOccupied(u UHF) Map {
	if u.Valid() {
		m.bits |= 1 << uint(u)
	}
	return m
}

// SetFree returns a copy of m with channel u marked free.
func (m Map) SetFree(u UHF) Map {
	if u.Valid() {
		m.bits &^= 1 << uint(u)
	}
	return m
}

// Or returns the union of occupancy: a channel is occupied in the result
// if it is occupied in either map. The AP takes the bitwise OR of its own
// and all clients' maps to find channels free at every node (Section 4.1).
func (m Map) Or(n Map) Map { return Map{bits: m.bits | n.bits} }

// And returns the intersection of occupancy.
func (m Map) And(n Map) Map { return Map{bits: m.bits & n.bits} }

// Hamming returns the Hamming distance between two spectrum maps: the
// number of UHF channels available at one location but unavailable at the
// other (Section 2.1).
func (m Map) Hamming(n Map) int {
	x := m.bits ^ n.bits
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// CountOccupied returns the number of incumbent-occupied UHF channels.
func (m Map) CountOccupied() int { return Map{}.Hamming(m) }

// CountFree returns the number of free UHF channels.
func (m Map) CountFree() int { return NumUHF - m.CountOccupied() }

// FreeChannels returns the indices of all free UHF channels, ascending.
func (m Map) FreeChannels() []UHF {
	out := make([]UHF, 0, NumUHF)
	for u := UHF(0); u < NumUHF; u++ {
		if m.Free(u) {
			out = append(out, u)
		}
	}
	return out
}

// ChannelFree reports whether every UHF channel spanned by c is free, that
// is, whether a WhiteFi node may operate on c without violating the
// incumbent non-interference rule.
func (m Map) ChannelFree(c Channel) bool {
	if !c.Valid() {
		return false
	}
	lo, hi := c.Bounds()
	for u := lo; u <= hi; u++ {
		if m.Occupied(u) {
			return false
		}
	}
	return true
}

// AvailableChannels enumerates every valid WhiteFi channel whose entire
// span is free in m.
func (m Map) AvailableChannels() []Channel {
	var out []Channel
	for _, c := range AllChannels() {
		if m.ChannelFree(c) {
			out = append(out, c)
		}
	}
	return out
}

// Fragment is a maximal run of contiguous free UHF channels.
type Fragment struct {
	Lo, Hi UHF // inclusive bounds
}

// Channels returns the number of UHF channels in the fragment.
func (f Fragment) Channels() int { return int(f.Hi-f.Lo) + 1 }

// WidthMHz returns the fragment's total width in MHz.
func (f Fragment) WidthMHz() int { return f.Channels() * UHFWidthMHz }

// String returns e.g. "uhf26-uhf30 (30MHz)".
func (f Fragment) String() string {
	return fmt.Sprintf("%s-%s (%dMHz)", f.Lo, f.Hi, f.WidthMHz())
}

// Fragments returns the maximal runs of contiguous free UHF channels in m,
// ascending. Note contiguity is in UHF index space; the 6 MHz hole left
// by reserved channel 37 sits between indices 15 and 16, so a run across
// that boundary is split (the frequencies are not adjacent).
func (m Map) Fragments() []Fragment {
	var out []Fragment
	// Index of the first channel above the reserved-37 frequency gap.
	gap, _ := UHFFromTV(ReservedTVChannel + 1)
	start := UHF(-1)
	flush := func(end UHF) {
		if start >= 0 {
			out = append(out, Fragment{Lo: start, Hi: end})
		}
		start = -1
	}
	for u := UHF(0); u < NumUHF; u++ {
		if u == gap {
			flush(u - 1)
		}
		if m.Free(u) {
			if start < 0 {
				start = u
			}
		} else {
			flush(u - 1)
		}
	}
	flush(NumUHF - 1)
	return out
}

// WidestFragment returns the fragment with the most channels, or ok=false
// when no channel is free. Ties go to the lowest-frequency fragment.
func (m Map) WidestFragment() (f Fragment, ok bool) {
	for _, g := range m.Fragments() {
		if !ok || g.Channels() > f.Channels() {
			f, ok = g, true
		}
	}
	return f, ok
}

// String renders the map as a 30-character string, '.' for free and 'X'
// for occupied, lowest UHF channel first.
func (m Map) String() string {
	var b strings.Builder
	for u := UHF(0); u < NumUHF; u++ {
		if m.Occupied(u) {
			b.WriteByte('X')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// ParseMap parses the format produced by Map.String: 30 characters, '.'
// or '-' for free and anything else for occupied.
func ParseMap(s string) (Map, error) {
	if len(s) != NumUHF {
		return Map{}, fmt.Errorf("spectrum: map string must be %d chars, got %d", NumUHF, len(s))
	}
	var m Map
	for i := 0; i < NumUHF; i++ {
		if s[i] != '.' && s[i] != '-' {
			m = m.SetOccupied(UHF(i))
		}
	}
	return m, nil
}
