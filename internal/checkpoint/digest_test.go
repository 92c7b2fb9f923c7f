package checkpoint

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"
)

// refHex16 is the former fmt rendering of hex16.
func refHex16(v uint64) string { return fmt.Sprintf("%016x", v) }

// edgeFloats are the float values whose %v text is easiest to get
// wrong: signed zeros, infinities, NaN, subnormals, the switch points
// between plain and exponent form, and values at the ends of the range.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // a second NaN bit pattern
	5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e21, -1e21, 1e20, 123456789012345678901.0,
	1e-4, 1e-5, 0.00012345678901234567, 100000, 1e6, 999999.9999999999,
	0.1, -0.1, 1.0 / 3, 20, -95.5, 12.5, 2500,
}

// edgeInts are the integers at the ends of each width.
var edgeInts = []int64{0, 1, -1, 9, 10, 99, 100, -100, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

// edgeStrings need escaping under %q or hold non-ASCII text.
var edgeStrings = []string{"", "mic", "beacon-timeout", "a\"b", `back\slash`, "tab\there", "nl\n", "\x00\x7f",
	"ünïcödé", "日本", "\xff\xfe invalid utf-8", "\u2028", "emoji 📡"}

// randFloat draws an edge value or random bits (any float64 at all).
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	}
	return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
}

func randInt(r *rand.Rand) int64 {
	if r.Intn(2) == 0 {
		return edgeInts[r.Intn(len(edgeInts))]
	}
	return int64(r.Uint64()) >> r.Intn(64)
}

// render runs write against a fresh Digest and returns its text.
func render(write func(d *Digest)) []byte {
	var b bytes.Buffer
	d := NewDigest(&b)
	write(d)
	d.Flush()
	return b.Bytes()
}

// tuv is a test Appender with a String method, standing in for
// spectrum.UHF.
type tuv int

func (u tuv) String() string           { return fmt.Sprintf("u%d", int(u)) }
func (u tuv) AppendTo(b []byte) []byte { return append(b, u.String()...) }

// refRow is the fmt rendering every appender method must reproduce.
func refRow(i int64, u uint64, x, y float64, t bool, s string, fs []float64, is []int64, us []tuv) string {
	return fmt.Sprintf("row %d i=%d u=%d p=%d/%d x=%v y=%v t=%t s=%s q=%q f=%v n=%v l=%v v=%v\n",
		i, i, u, i, -i, x, y, t, s, s, fs, is, us, tuv(i))
}

func appendRow(d *Digest, i int64, u uint64, x, y float64, t bool, s string, fs []float64, is []int64, us []tuv) {
	d.Row("row").Num(i).Int("i", i).Uint("u", u).Pair("p", i, -i).Float("x", x).Float("y", y).
		Bool("t", t).Str("s", s).Quote("q", s).Floats("f", fs).Ints("n", is)
	List(d, "l", us).Text("v", tuv(i)).End()
}

// TestDigestMatchesFmt renders rows of edge and random values through
// every appender method and requires the bytes of the fmt verbs they
// replace, many rows per Digest so the float memo and the chunked
// flush are exercised too.
func TestDigestMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var want bytes.Buffer
	got := render(func(d *Digest) {
		for row := 0; row < 20000; row++ {
			i, u := randInt(r), r.Uint64()
			if row%7 == 0 {
				u = math.MaxUint64
			}
			x, y := randFloat(r), randFloat(r)
			s := edgeStrings[r.Intn(len(edgeStrings))]
			fs := make([]float64, r.Intn(6))
			for k := range fs {
				fs[k] = randFloat(r)
			}
			is := make([]int64, r.Intn(4))
			for k := range is {
				is[k] = randInt(r)
			}
			us := make([]tuv, r.Intn(4))
			for k := range us {
				us[k] = tuv(r.Intn(60) - 10)
			}
			want.WriteString(refRow(i, u, x, y, row%2 == 0, s, fs, is, us))
			appendRow(d, i, u, x, y, row%2 == 0, s, fs, is, us)
			want.WriteString("whole line\n")
			d.Line("whole line")
		}
	})
	if !bytes.Equal(got, want.Bytes()) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for k := range wl {
			if k >= len(gl) || !bytes.Equal(gl[k], wl[k]) {
				t.Fatalf("line %d:\n got %q\nwant %q", k, gl[min(k, len(gl)-1)], wl[k])
			}
		}
		t.Fatalf("got %d bytes, want %d", len(got), want.Len())
	}
}

// TestFloatMemoKeysOnBits renders values that compare equal but print
// differently, and repeated values, through one Digest's memo: a memo
// keyed by value (a map[float64]string, say) would print -0 as 0.
func TestFloatMemoKeysOnBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 0, negZero, math.NaN(), math.NaN(), 1, 1}
	got := render(func(d *Digest) {
		d.Row("f").Floats("v", vals).End()
	})
	if want := fmt.Sprintf("f v=%v\n", vals); string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestFloatMemoSharedSlot renders two floats that share a memo slot,
// alternately: each must read back its own text, not the slot's last.
func TestFloatMemoSharedSlot(t *testing.T) {
	slotOf := func(v float64) int {
		d := NewDigest(io.Discard)
		d.Float("x", v)
		for i := range d.memo {
			if d.memo[i].n != 0 {
				return i
			}
		}
		t.Fatalf("%v left no memo entry", v)
		return -1
	}
	seen := map[int]float64{}
	var a, b float64
	for k := 1; ; k++ {
		v := float64(k) / 7
		s := slotOf(v)
		if u, ok := seen[s]; ok {
			a, b = u, v
			break
		}
		seen[s] = v
	}
	vals := []float64{a, b, a, b, b, a, a}
	got := render(func(d *Digest) { d.Row("f").Floats("v", vals).End() })
	if want := fmt.Sprintf("f v=%v\n", vals); string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestHashSectionMatchesFmt: the section digest and hashBytes keep the
// former %016x rendering, including leading zeros.
func TestHashSectionMatchesFmt(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xf, 0x1234, 1 << 63, math.MaxUint64, 0x0123456789abcdef} {
		if got, want := hex16(v), refHex16(v); got != want {
			t.Fatalf("hex16(%#x) = %s, want %s", v, got, want)
		}
	}
	text := []byte("air launches=1\n")
	h := fnv.New64a()
	h.Write(text)
	sec := HashSection("air", 3, func(d *Digest) { d.Line("air launches=1") })
	if want := refHex16(h.Sum64()); sec.Digest != want || hashBytes(text) != want || sec.Name != "air" || sec.Items != 3 {
		t.Fatalf("HashSection = %+v, hashBytes = %s, want digest %s", sec, hashBytes(text), want)
	}
}

// FuzzDigestRow checks the row appender against the fmt verbs it
// replaces, for any values, rendering each float twice and its
// negation once so a memo hit and a sign flip go through the same slot.
func FuzzDigestRow(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, math.Copysign(0, -1), true, "")
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), math.Inf(1), math.NaN(), false, "a\"b\\\n")
	f.Add(int64(-7), uint64(41), 5e-324, 1e21, true, "ünï\xff")
	f.Fuzz(func(t *testing.T, i int64, u uint64, x, y float64, b bool, s string) {
		fs := []float64{x, y, -x, y}
		is := []int64{i, -i}
		us := []tuv{tuv(i % 100)}
		want := refRow(i, u, x, y, b, s, fs, is, us) + refRow(i, u, y, x, b, s, fs, is, us)
		got := render(func(d *Digest) {
			appendRow(d, i, u, x, y, b, s, fs, is, us)
			appendRow(d, i, u, y, x, b, s, fs, is, us)
		})
		if string(got) != want {
			t.Fatalf("got  %q\nwant %q", got, want)
		}
	})
}
