package core

import (
	"sort"

	"whitefi/internal/checkpoint"
)

// DigestState writes the AP's canonical protocol state to d, for
// checkpoint section digests: channel selection (current selector
// channel, backup, previous channel for voluntary-switch revert),
// per-client observation bookkeeping, the disconnection-recovery
// machine (onBackup, chirp collection progress, switch generation),
// fault state (incarnation, crashed, stall horizon), and the recorded
// switch/crash/stall counters. The AP's MAC node is digested
// separately by mac.Node.DigestState; backup-draw RNG positions are
// excluded like every other RNG stream (see sim.Engine.DigestState).
func (ap *AP) DigestState(d *checkpoint.Digest) {
	cur, hasCur := ap.selector.Current()
	d.Row("ap").Int("id", int64(ap.ID)).Pair("cur", int64(cur.Center), int64(cur.Width)).Bool("has", hasCur).
		Pair("backup", int64(ap.backup.Center), int64(ap.backup.Width)).Int("ssid", int64(ap.ssidCode)).
		Bool("run", ap.running).End()
	d.Row("ap").Bool("onbackup", ap.onBackup).Bool("collecting", ap.collecting).Int("retries", int64(ap.collectRetries)).
		Bool("sensedinc", ap.apSensedIncumbent).Int("maps", int64(len(ap.chirpMaps))).Int("seen", int64(len(ap.chirpSeen))).
		Int("switchgen", int64(ap.switchGen)).Bool("pending", ap.switchPending).Int("lastswitch", int64(ap.lastSwitchDone)).End()
	d.Row("ap").Int("inc", int64(ap.incarnation)).Bool("crashed", ap.crashed).Int("stalled", int64(ap.stalledUntil)).
		Int("reconn", int64(ap.Reconnections)).Int("crashes", int64(ap.Crashes)).Int("stalls", int64(ap.Stalls)).End()
	d.Row("ap").Float("lastgood", ap.lastGoodput).Pair("prev", int64(ap.prevChannel.Center), int64(ap.prevChannel.Width)).
		Bool("revert", ap.pendingRevert).Int("base", ap.goodputBase).Int("baseat", int64(ap.goodputBaseAt)).End()
	ids := make([]int, 0, len(ap.clients))
	for id := range ap.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cs := ap.clients[id]
		d.Row("apclient").Int("id", int64(cs.id)).Bool("hasobs", cs.hasObs).Int("lastseen", int64(cs.lastSeen)).End()
	}
	for _, s := range ap.Switches {
		d.Row("switch").Int("at", int64(s.At)).Pair("from", int64(s.From.Center), int64(s.From.Width)).
			Pair("to", int64(s.To.Center), int64(s.To.Width)).Int("reason", int64(s.Reason)).Float("metric", s.Metric).End()
	}
}

// DigestState writes the client's canonical protocol state to d:
// association (AP channel, backup, last beacon), the outage episode
// machine (onBackup, open-episode fields, rotation generation), the
// recovery counters, and every completed outage record. The client's
// MAC node is digested separately by mac.Node.DigestState; the
// client's recovery RNG position is excluded like every other RNG
// stream (see sim.Engine.DigestState).
func (c *Client) DigestState(d *checkpoint.Digest) {
	d.Row("client").Int("id", int64(c.ID)).Int("ap", int64(c.apID)).Bool("assoc", c.associated).
		Pair("apch", int64(c.apChannel.Center), int64(c.apChannel.Width)).
		Pair("backup", int64(c.backup.Center), int64(c.backup.Width)).Int("beacon", int64(c.lastBeacon)).Int("ssid", int64(c.ssidCode)).Bool("run", c.running).End()
	d.Row("client").Bool("onbackup", c.onBackup).Int("chirps", int64(c.ChirpsSent())).Bool("open", c.outOpen).
		Int("start", int64(c.outStart)).Quote("cause", c.outCause).Int("hops", int64(len(c.outPath))).
		Int("gen", int64(c.episodeGen)).End()
	d.Row("client").Int("reconn", int64(c.Reconnections)).Int("disc", int64(c.Disconnects)).
		Int("rdv", int64(c.RendezvousAttempts)).End()
	for _, o := range c.Outages {
		d.Line(o.Line())
	}
}
