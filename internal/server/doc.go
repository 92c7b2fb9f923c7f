// Package server exposes the scenario session registry over HTTP: a
// small JSON/JSONL control plane for submitting simulations, streaming
// their telemetry, and pausing, checkpointing, forking and resuming
// them while they run.
//
// The server holds no simulation logic of its own. Every scenario it
// can run is a checkpoint.Session kind (see internal/checkpoint and
// the registrations in internal/exp), and every capability it offers —
// concurrent runs on a bounded worker pool, live snapshot streaming,
// pause/resume, checkpoint export, fork-with-edits — is built from the
// session contract alone: sessions advance in arbitrary virtual-time
// slices with byte-identical results, so the server can interleave
// control between slices without perturbing the simulation.
//
// API (all under /api):
//
//	POST /api/runs                  {"kind","spec"}  → {"id"}; starts immediately
//	GET  /api/runs                  run summaries, in submission order
//	GET  /api/runs/{id}             one run's status (+result JSON when done)
//	GET  /api/runs/{id}/stream      live snapshot JSONL (chunked; replays from t=0)
//	POST /api/runs/{id}/pause       hold the run between slices
//	POST /api/runs/{id}/resume      release it
//	POST /api/runs/{id}/checkpoint  capture + download the checkpoint document
//	POST /api/runs/{id}/fork        {"edits":[...]} → {"id"} of the forked run
//	POST /api/restore               body = checkpoint document → {"id"}; resumes it
//	GET  /api/kinds                 registered session kinds
//
// Checkpoints taken from a paused run restore into a run that replays
// the original's history exactly (verified by section digests at the
// capture instant) and then continues it; a fork applies what-if edits
// at the capture instant and diverges only from there.
//
// Status reads never wait for the simulation. Each run publishes an
// immutable status (state, virtual clock, end, error and, once done,
// the result) at every slice boundary and every state change, and the
// two status endpoints read the latest one without taking the run
// lock: a poll issued while a slice is advancing reports the last
// completed slice boundary. Pause, resume, checkpoint and fork take
// the run lock and land on slice boundaries.
//
// A finished run keeps only what it serves: its result, its snapshot
// stream and the end checkpoint captured once when it finished. Its
// session is dropped; checkpoint and fork requests on it use the end
// checkpoint.
package server
