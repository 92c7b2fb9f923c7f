package incumbent

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"whitefi/internal/checkpoint"
	"whitefi/internal/spectrum"
)

// refMicDigest is the fmt rendering that Mic.DigestState replaced, kept
// verbatim as the reference its bytes must equal.
func refMicDigest(m *Mic, w io.Writer) {
	fmt.Fprintf(w, "mic u=%d active=%t\n", m.Channel, m.active)
}

// TestMicDigestMatchesFmt: a mic on any channel index, active or not,
// renders exactly the former fmt bytes.
func TestMicDigestMatchesFmt(t *testing.T) {
	for _, u := range []spectrum.UHF{0, 7, spectrum.NumUHF - 1, -1, math.MaxInt64, math.MinInt64} {
		for _, active := range []bool{false, true} {
			m := &Mic{Channel: u, active: active}
			var want, got bytes.Buffer
			refMicDigest(m, &want)
			d := checkpoint.NewDigest(&got)
			m.DigestState(d)
			d.Flush()
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("got %q, want %q", got.Bytes(), want.Bytes())
			}
		}
	}
}
