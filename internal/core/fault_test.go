package core

import (
	"testing"
	"time"

	"whitefi/internal/incumbent"
	"whitefi/internal/mac"
	"whitefi/internal/radio"
	"whitefi/internal/sim"
	"whitefi/internal/trace"
)

// Fault-injection tests for the crash/restart machinery and the hardened
// recovery protocol (PR 6).

// crashWorld builds a plain two-node network with no mics.
func crashWorld(seed int64) (*sim.Engine, *Network) {
	eng := sim.New(seed)
	air := mac.NewAir(eng)
	base := incumbent.SimulationBaseMap()
	sensors := []*radio.IncumbentSensor{{Base: base}, {Base: base}}
	n := NewNetwork(eng, air, Config{}, sensors)
	n.StartDownlink(1000)
	return eng, n
}

func TestAPCrashRestartRecovery(t *testing.T) {
	eng, n := crashWorld(31)
	cl := n.Clients[0]
	eng.RunUntil(2 * time.Second)
	if !cl.Associated() {
		t.Fatal("client never associated")
	}

	n.AP.Crash()
	n.AP.Crash() // idempotent: a crashed AP cannot crash again
	if n.AP.Crashes != 1 {
		t.Fatalf("Crashes = %d after double Crash", n.AP.Crashes)
	}
	if !n.AP.Node.Down() {
		t.Fatal("crashed AP's radio still up")
	}

	// Beacon timeout (1.2 s) sends the client to the backup channel.
	eng.RunUntil(5 * time.Second)
	if cl.Associated() {
		t.Fatal("client still associated with a dead AP")
	}
	if cl.Disconnects != 1 {
		t.Fatalf("Disconnects = %d, want 1", cl.Disconnects)
	}
	open, ok := cl.OpenOutage()
	if !ok {
		t.Fatal("no open outage episode while disconnected")
	}
	if open.Cause != "beacon-timeout" {
		t.Fatalf("outage cause = %q, want beacon-timeout", open.Cause)
	}
	if open.Path == "" {
		t.Fatal("outage path is empty while chirping on a backup channel")
	}

	n.AP.Restart()
	n.AP.Restart() // idempotent: a running AP cannot restart
	eng.RunUntil(30 * time.Second)
	if !cl.Associated() || cl.Channel() != n.AP.Channel() {
		t.Fatalf("client never re-associated: client %v, AP %v", cl.Channel(), n.AP.Channel())
	}
	if _, stillOpen := cl.OpenOutage(); stillOpen {
		t.Fatal("outage episode still open after re-association")
	}
	if len(cl.Outages) != 1 {
		t.Fatalf("Outages = %d records, want exactly 1 (no double-counting)", len(cl.Outages))
	}
	rec := cl.Outages[0]
	if !rec.Closed() || rec.DurMs <= 0 || rec.Cause != "beacon-timeout" {
		t.Fatalf("bad outage record: %+v", rec)
	}
	if cl.Disconnects != 1 || cl.Reconnections != 1 {
		t.Fatalf("disconnects=%d reconnections=%d, want 1/1", cl.Disconnects, cl.Reconnections)
	}
}

func TestClientEmitsOutageRecords(t *testing.T) {
	eng, n := crashWorld(32)
	cl := n.Clients[0]
	var emitted []trace.OutageRecord
	cl.OnOutage = func(r trace.OutageRecord) { emitted = append(emitted, r) }
	eng.RunUntil(2 * time.Second)
	n.AP.Crash()
	eng.After(5*time.Second, n.AP.Restart)
	eng.RunUntil(30 * time.Second)
	if len(cl.Outages) == 0 {
		t.Fatal("client state machine emitted no outage records")
	}
	if len(emitted) != len(cl.Outages) {
		t.Fatalf("OnOutage fired %d times for %d records", len(emitted), len(cl.Outages))
	}
}

func TestRestartMidChirpCollectDiscardsStaleMaps(t *testing.T) {
	eng, n := crashWorld(33)
	cl := n.Clients[0]
	eng.RunUntil(2 * time.Second)
	n.AP.Crash()
	eng.RunUntil(6 * time.Second) // client is chirping on the backup channel
	n.AP.Restart()

	// Step until the restarted AP sits on the backup channel with at
	// least one chirp body gathered inside an open Tc window. (With
	// chirp backoff engaged, early windows can be empty; the AP retries
	// collection until one lands.)
	deadline := eng.Now() + 30*time.Second
	for eng.Now() < deadline && len(n.AP.chirpMaps) == 0 {
		eng.RunUntil(eng.Now() + 10*time.Millisecond)
	}
	if len(n.AP.chirpMaps) == 0 {
		t.Fatal("AP never gathered a chirp map in a collection window")
	}
	if !n.AP.collecting {
		t.Fatal("chirp map gathered outside a collection window")
	}

	// Crash in the middle of the Tc window: the pre-crash chirp maps
	// must be discarded, not fed to the post-restart reassignment.
	n.AP.Crash()
	if n.AP.chirpMaps != nil || n.AP.chirpSeen != nil {
		t.Fatal("crash kept pre-crash chirp maps")
	}
	if n.AP.collecting {
		t.Fatal("crash left the collection window open")
	}
	n.AP.Restart()
	// The stale finishCollect event (still queued from before the crash)
	// must not fire into the restarted incarnation.
	eng.RunUntil(eng.Now() + DefaultChirpCollect + 100*time.Millisecond)
	if n.AP.collecting && len(n.AP.chirpMaps) == 0 {
		t.Fatal("stale collection window resurrected after restart")
	}

	eng.RunUntil(eng.Now() + 40*time.Second)
	if !cl.Associated() || cl.Channel() != n.AP.Channel() {
		t.Fatalf("client never recovered: client %v, AP %v", cl.Channel(), n.AP.Channel())
	}
	if _, open := cl.OpenOutage(); open {
		t.Fatal("permanent orphan after double crash")
	}
}

func TestScannerStallDelaysChirpDetection(t *testing.T) {
	eng, n := crashWorld(34)
	cl := n.Clients[0]
	eng.RunUntil(2 * time.Second)
	n.AP.Crash()
	eng.RunUntil(5 * time.Second)
	n.AP.Restart()
	// Stall the scanner across the whole recovery attempt: the AP must
	// not see any chirps while stalled.
	n.AP.StallScanner(10 * time.Second)
	if n.AP.Stalls != 1 {
		t.Fatalf("Stalls = %d", n.AP.Stalls)
	}
	eng.RunUntil(9 * time.Second)
	if cl.Associated() {
		t.Fatal("client re-associated while the AP's scanner was stalled")
	}
	eng.RunUntil(45 * time.Second)
	if !cl.Associated() {
		t.Fatal("client never recovered after the stall ended")
	}
}

func TestBackupRotationWhenChirpChannelHit(t *testing.T) {
	// Both the operating and the advertised backup channel are
	// mic-occupied (client-sensed), pushing the client to a secondary
	// backup; then a third mic lands on that very chirp channel. The
	// client must rotate immediately to a remaining free channel instead
	// of chirping under an incumbent, and the network must still reform.
	eng := sim.New(25)
	air := mac.NewAir(eng)
	base := incumbent.SimulationBaseMap()
	micMain := incumbent.NewMic(eng, 0)
	micBackup := incumbent.NewMic(eng, 0)
	micSec := incumbent.NewMic(eng, 0)
	mics := []*incumbent.Mic{micMain, micBackup, micSec}
	apSensor := &radio.IncumbentSensor{Base: base}
	clSensor := &radio.IncumbentSensor{Base: base, Mics: mics}
	n := NewNetwork(eng, air, Config{}, []*radio.IncumbentSensor{apSensor, clSensor})
	cl := n.Clients[0]
	eng.RunUntil(2 * time.Second)

	micMain.Channel = n.AP.Channel().Center
	micBackup.Channel = n.AP.Backup().Center
	micBackup.TurnOn()
	eng.RunUntil(3 * time.Second)
	micMain.TurnOn()
	eng.RunUntil(4 * time.Second)
	if !cl.onBackup {
		t.Fatal("client did not vacate")
	}
	sec := cl.Channel()
	if sec == n.AP.Backup() || sec.Contains(micMain.Channel) || sec.Contains(micBackup.Channel) {
		t.Fatalf("secondary backup %v overlaps a mic", sec)
	}

	// Hit the secondary chirp channel too.
	micSec.Channel = sec.Center
	micSec.TurnOn()
	eng.RunUntil(4100 * time.Millisecond)
	rotated := cl.Channel()
	if rotated == sec {
		t.Fatal("client kept chirping under the incumbent on its chirp channel")
	}
	for _, m := range mics {
		if rotated.Contains(m.Channel) {
			t.Fatalf("rotation target %v overlaps an active mic", rotated)
		}
	}

	eng.RunUntil(60 * time.Second)
	if cl.Channel() != n.AP.Channel() {
		t.Fatalf("never reunited: client %v, AP %v", cl.Channel(), n.AP.Channel())
	}
	if _, open := cl.OpenOutage(); open {
		t.Fatal("outage episode never closed after rotation")
	}
	if len(cl.Outages) == 0 {
		t.Fatal("no outage record emitted")
	}
	if rec := cl.Outages[len(cl.Outages)-1]; rec.Path == "" {
		t.Fatal("outage record has no rendezvous path")
	}
}

func TestInjectLoadRoundRobinsClients(t *testing.T) {
	eng, n := crashWorld(35)
	eng.RunUntil(2 * time.Second)
	got := n.AP.InjectLoad(8, 500)
	if got == 0 {
		t.Fatal("InjectLoad accepted nothing on a healthy AP")
	}
	n.AP.Crash()
	if n.AP.InjectLoad(8, 500) != 0 {
		t.Fatal("InjectLoad accepted frames on a crashed AP")
	}
}
