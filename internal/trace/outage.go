package trace

import "strconv"

// OutageRecord is one connectivity outage as observed by a node's state
// machine: the span from losing the network (mic hit, beacon timeout,
// AP crash) to completed re-association, with the cause and the channel
// path walked while disconnected. It is both the JSON trace line
// (event "outage") and the unit the MTTR/percentile aggregates consume.
// Times are milliseconds of virtual time; an EndMs of 0 with DurMs 0
// marks an outage still open when the run ended (a permanent orphan).
type OutageRecord struct {
	Event   string  `json:"event"`
	Node    int     `json:"node"`
	Cause   string  `json:"cause"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	DurMs   float64 `json:"dur_ms"`
	// Path is the channel path walked while disconnected, ">"-joined
	// (e.g. "ch33/5MHz>ch12/5MHz"): the backup-channel rendezvous
	// attempts in order, ending on the channel where service resumed.
	Path string `json:"path"`
}

// Closed reports whether the outage ended within the run.
func (r OutageRecord) Closed() bool { return r.EndMs > 0 || r.DurMs > 0 }

// Line renders the record as one stable human-readable trace line, the
// form the determinism tests compare byte-for-byte across worker
// counts.
func (r OutageRecord) Line() string {
	b := append(make([]byte, 0, 96), "node="...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(append(b, " cause="...), r.Cause...)
	b = strconv.AppendFloat(append(b, " start="...), r.StartMs, 'f', 3, 64)
	b = append(b, " end="...)
	if r.Closed() {
		b = strconv.AppendFloat(b, r.EndMs, 'f', 3, 64)
	} else {
		b = append(b, "open"...)
	}
	b = strconv.AppendFloat(append(b, " dur="...), r.DurMs, 'f', 3, 64)
	return string(append(append(b, " path="...), r.Path...))
}

// closedDurs collects the durations of closed outages.
func closedDurs(recs []OutageRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Closed() {
			out = append(out, r.DurMs)
		}
	}
	return out
}

// MTTRMs returns the mean time-to-repair over the closed outages in
// recs, in milliseconds; 0 when none closed.
func MTTRMs(recs []OutageRecord) float64 { return Mean(closedDurs(recs)) }

// OutageP95Ms returns the 95th-percentile (nearest-rank) closed-outage
// duration in recs, in milliseconds; 0 when none closed.
func OutageP95Ms(recs []OutageRecord) float64 { return Percentile(closedDurs(recs), 95) }

// OpenOutages counts records still open at the end of the run — the
// permanent orphans a recovery protocol must not leave behind.
func OpenOutages(recs []OutageRecord) int {
	n := 0
	for _, r := range recs {
		if !r.Closed() {
			n++
		}
	}
	return n
}
