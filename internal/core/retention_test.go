package core

import (
	"testing"
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
)

// TestDisconnectionRoundTripUnderRetentionPrune drives the full
// client-initiated disconnection round-trip — client senses a mic the
// AP cannot hear, vacates to the backup channel and chirps
// (goToBackup); the AP's secondary radio finds the chirp and the main
// radio joins (AP.joinBackup); finishCollect folds the chirped map in
// and reassigns — while the medium aggressively prunes history
// (Air.Retention). The chirp-scan windows reach back
// DefaultBackupScanPeriod, so a retention horizon at least that deep
// must never drop history the collection still needs; saturated
// downlink traffic keeps the log well past the automatic-prune
// watermark so prunes actually run.
func TestDisconnectionRoundTripUnderRetentionPrune(t *testing.T) {
	eng := sim.New(31)
	air := mac.NewAir(eng)
	// Deepest lookback in the run is the DefaultBackupScanPeriod chirp
	// scan (3s); retain just one second more.
	air.Retention = 4 * time.Second
	base := incumbent.SimulationBaseMap()
	mic := incumbent.NewMic(eng, 0)
	sensors := []*radio.IncumbentSensor{
		{Base: base}, // AP deaf to the mic: only the chirp can tell it
		{Base: base, Mics: []*incumbent.Mic{mic}},
	}
	n := NewNetwork(eng, air, Config{}, sensors)
	n.StartDownlink(1000)

	eng.RunUntil(2 * time.Second)
	cl := n.Clients[0]
	if !cl.Associated() {
		t.Fatal("client never associated")
	}
	mic.Channel = n.AP.Channel().Center
	mic.ScheduleOn(2500 * time.Millisecond)

	eng.RunUntil(3 * time.Second)
	if !cl.onBackup {
		t.Fatal("client did not vacate to the backup channel")
	}
	if cl.Disconnects != 1 {
		t.Fatalf("Disconnects = %d, want 1", cl.Disconnects)
	}

	// Give the AP a few backup-scan periods to hear the chirp, join,
	// collect, and reassign — all while prunes run underneath.
	eng.RunUntil(20 * time.Second)

	if got := len(air.History()); got == 0 || got > 100000 {
		t.Fatalf("history length %d: retention prune did not keep the log bounded", got)
	}
	// Prunes must actually have run: under saturated traffic the log
	// passes the automatic watermark many times over, so nothing from
	// the first half of the run survives a 4-second horizon.
	if oldest := air.History()[0]; oldest.End < 10*time.Second {
		t.Fatalf("oldest surviving transmission ended at %v; automatic prune never ran", oldest.End)
	}
	if n.AP.Reconnections < 1 {
		t.Fatalf("AP completed %d reconnections, want >= 1 (chirp history lost?)", n.AP.Reconnections)
	}
	if cl.Reconnections < 1 {
		t.Fatalf("client completed %d reconnections, want >= 1", cl.Reconnections)
	}
	if cl.onBackup || !cl.Associated() {
		t.Fatal("client still stranded on the backup channel")
	}
	if cl.Channel() != n.AP.Channel() {
		t.Fatalf("client on %v, AP on %v", cl.Channel(), n.AP.Channel())
	}
	if n.AP.Channel().Contains(mic.Channel) {
		t.Fatalf("network reassembled on the mic channel %v", mic.Channel)
	}
	// The reassigned channel came out of finishCollect's aggregation of
	// the chirped map: it must be free at the client too.
	if !sensors[1].CurrentMap().ChannelFree(n.AP.Channel()) {
		t.Fatalf("final channel %v not free at the client", n.AP.Channel())
	}
}
