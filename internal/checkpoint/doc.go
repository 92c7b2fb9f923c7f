// Package checkpoint provides versioned snapshot/restore of running
// simulations, built on the repository's strict determinism rather
// than on struct serialization.
//
// A Go simulation state cannot be marshaled directly: the engine's
// pending-event queue holds closures, and math/rand sources do not
// expose their positions. What CAN be made stable — because every run
// is a pure function of its config and seeds, byte-identical at any
// worker or shard count — is the pair (config, virtual time) plus a
// digest of every piece of live state. A checkpoint is therefore a
// replay recipe with a verification surface: the scenario kind, the
// full config JSON, the capture time T, and one FNV-1a digest per
// state section (engine queues, medium log and arenas, MAC and
// protocol machines, traffic telemetry including mid-stream P² sketch
// markers, fault processes). Restore rebuilds the session from the
// config through the registered Builder, replays it to T, and then
// proves the reconstruction by recomputing every section digest and
// comparing — a restored run that would not continue bit-identically
// is rejected, never silently divergent.
//
// Every section renders its state through Digest, one line appender
// that holds the canonical text format: strconv renderings byte-equal
// to the fmt verbs the digests were first defined with, built in a
// bounded buffer that feeds the hash, so digesting a section costs no
// allocation per line.
//
// The on-disk format is JSONL: a header line with a format version, a
// config line, one line per section, and a trailer carrying a line
// count and a checksum over the body, so truncated or corrupted files
// fail decode cleanly. See DESIGN.md "Checkpoint & serving" for the
// state inventory and the documented exclusions (RNG stream positions,
// wall-clock timing).
package checkpoint
