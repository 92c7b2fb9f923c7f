package checkpoint

import (
	"hash/fnv"
	"io"
	"math"
	"strconv"
)

// HashSection digests one state component: write renders the
// component's canonical state into d (the DigestState pattern — every
// stateful package exposes one), and the result carries the
// 16-hex-digit FNV-1a 64 sum. FNV is not cryptographic; the digest
// defends against divergence and corruption, not adversaries, and
// matches the repository's other determinism artifacts.
func HashSection(name string, items int, write func(d *Digest)) Section {
	h := fnv.New64a()
	d := NewDigest(h)
	write(d)
	d.Flush()
	return Section{Name: name, Items: items, Digest: hex16(h.Sum64())}
}

// hashBytes returns the 16-hex-digit FNV-1a 64 digest of b.
func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return hex16(h.Sum64())
}

// hex16 renders v as 16 lowercase hex digits, zero-padded (fmt's %016x).
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// digestChunk is the buffered text length past which End hands the
// buffer to the sink. Every line shorter than it renders without
// growing the buffer.
const digestChunk = 16 << 10

// Digest renders one section's canonical state text, the stream its
// digest hashes. The text is a sequence of lines, each a tag followed
// by space-separated fields:
//
//	tx uid=41 src=1002 ch=3/5 start=1500000 end=1730000 pwr=20 nocs=false x=12.5 y=-0 …
//
// Every value renders exactly as the fmt verb the text was first
// written with: integers as %d, booleans as %t, floats as %v (shortest
// 'g', so -0, NaN and ±Inf keep their fmt spelling), strings as %s or
// %q, lists as fmt prints a slice. DESIGN.md "Checkpoint & serving"
// states the contract; the digests of every checkpoint written so far
// depend on it, so a rendering rule never changes.
//
// Lines build in one bounded buffer that is handed to the sink whenever
// a line ends past digestChunk bytes, so a section of any size renders
// with a fixed number of allocations. Float texts are memoized by their
// bits (see appendFloat). A Digest is single-goroutine, like the state
// it renders.
type Digest struct {
	w    io.Writer
	buf  []byte
	memo *[1 << floatMemoBits]floatText // float texts; allocated by the first float field
}

// NewDigest returns a Digest that writes its text to w. w must not
// fail: a hash or a bytes.Buffer. Call Flush after the last line.
func NewDigest(w io.Writer) *Digest {
	return &Digest{w: w, buf: make([]byte, 0, 2*digestChunk)}
}

// Flush writes the buffered text to the sink.
func (d *Digest) Flush() {
	d.w.Write(d.buf)
	d.buf = d.buf[:0]
}

// Row starts a line with its tag.
func (d *Digest) Row(tag string) *Digest {
	d.buf = append(d.buf, tag...)
	return d
}

// End finishes the current line.
func (d *Digest) End() {
	d.buf = append(d.buf, '\n')
	if len(d.buf) >= digestChunk {
		d.Flush()
	}
}

// Line writes s as one whole line.
func (d *Digest) Line(s string) {
	d.Row(s).End()
}

// key starts the field " k=".
func (d *Digest) key(k string) {
	d.buf = append(d.buf, ' ')
	d.buf = append(d.buf, k...)
	d.buf = append(d.buf, '=')
}

// Num appends the bare field " v" (%d, no key).
func (d *Digest) Num(v int64) *Digest {
	d.buf = append(d.buf, ' ')
	d.buf = strconv.AppendInt(d.buf, v, 10)
	return d
}

// Int appends " k=v" with v as %d.
func (d *Digest) Int(k string, v int64) *Digest {
	d.key(k)
	d.buf = strconv.AppendInt(d.buf, v, 10)
	return d
}

// Uint appends " k=v" with v as %d.
func (d *Digest) Uint(k string, v uint64) *Digest {
	d.key(k)
	d.buf = strconv.AppendUint(d.buf, v, 10)
	return d
}

// Pair appends " k=a/b" (%d/%d: a channel's center and width, a
// live/capacity count).
func (d *Digest) Pair(k string, a, b int64) *Digest {
	d.key(k)
	d.buf = strconv.AppendInt(d.buf, a, 10)
	d.buf = append(d.buf, '/')
	d.buf = strconv.AppendInt(d.buf, b, 10)
	return d
}

// Bool appends " k=v" with v as %t.
func (d *Digest) Bool(k string, v bool) *Digest {
	d.key(k)
	d.buf = strconv.AppendBool(d.buf, v)
	return d
}

// Float appends " k=v" with v as %v.
func (d *Digest) Float(k string, v float64) *Digest {
	d.key(k)
	d.appendFloat(v)
	return d
}

// Str appends " k=v" with v as %s.
func (d *Digest) Str(k, v string) *Digest {
	d.key(k)
	d.buf = append(d.buf, v...)
	return d
}

// Quote appends " k=v" with v as %q.
func (d *Digest) Quote(k, v string) *Digest {
	d.key(k)
	d.buf = strconv.AppendQuote(d.buf, v)
	return d
}

// Ints appends " k=[v0 v1 …]", fmt's %v of an integer slice.
func (d *Digest) Ints(k string, v []int64) *Digest {
	d.key(k)
	d.buf = append(d.buf, '[')
	for i, x := range v {
		if i > 0 {
			d.buf = append(d.buf, ' ')
		}
		d.buf = strconv.AppendInt(d.buf, x, 10)
	}
	d.buf = append(d.buf, ']')
	return d
}

// Floats appends " k=[v0 v1 …]", fmt's %v of a float slice.
func (d *Digest) Floats(k string, v []float64) *Digest {
	d.key(k)
	d.buf = append(d.buf, '[')
	for i, x := range v {
		if i > 0 {
			d.buf = append(d.buf, ' ')
		}
		d.appendFloat(x)
	}
	d.buf = append(d.buf, ']')
	return d
}

// Appender is a value that renders its own text, byte-equal to what
// fmt's %v prints for it (its String method).
type Appender interface {
	AppendTo(b []byte) []byte
}

// Text appends " k=v" with v as %v (or %s) of a Stringer.
func (d *Digest) Text(k string, v Appender) *Digest {
	d.key(k)
	d.buf = v.AppendTo(d.buf)
	return d
}

// List appends " k=[v0 v1 …]" to d, fmt's %v of a slice of Stringers:
// each element as its String text.
func List[T Appender](d *Digest, k string, v []T) *Digest {
	d.key(k)
	d.buf = append(d.buf, '[')
	for i, x := range v {
		if i > 0 {
			d.buf = append(d.buf, ' ')
		}
		d.buf = x.AppendTo(d.buf)
	}
	d.buf = append(d.buf, ']')
	return d
}

// floatMemoBits sizes a Digest's float memo (1<<floatMemoBits slots).
// A section renders few distinct floats many times over (a medium log
// repeats each source's position and transmit power on every row it
// launched), and shortest formatting is the costliest field to render.
const floatMemoBits = 12

// floatText is one memo slot: a float's bits and its %v text. n is
// zero in an empty slot; no float renders empty.
type floatText struct {
	bits uint64
	n    uint8
	text [24]byte // the longest float64 %v text, e.g. -2.2250738585072014e-308
}

// appendFloat appends v as %v, through a direct-mapped memo keyed by
// v's bits. The key is the bit pattern, not the value: +0 and -0
// compare equal but render "0" and "-0", and NaN equals nothing.
func (d *Digest) appendFloat(v float64) {
	if d.memo == nil {
		d.memo = new([1 << floatMemoBits]floatText)
	}
	bits := math.Float64bits(v)
	e := &d.memo[(bits*0x9E3779B97F4A7C15)>>(64-floatMemoBits)]
	if e.n != 0 && e.bits == bits {
		d.buf = append(d.buf, e.text[:e.n]...)
		return
	}
	start := len(d.buf)
	d.buf = strconv.AppendFloat(d.buf, v, 'g', -1, 64)
	if t := d.buf[start:]; len(t) <= len(e.text) {
		e.bits, e.n = bits, uint8(copy(e.text[:], t))
	}
}
