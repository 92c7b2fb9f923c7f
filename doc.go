// Package whitefi is a from-scratch Go reproduction of "White Space
// Networking with Wi-Fi like Connectivity" (Bahl, Chandra, Moscibroda,
// Murty, Welsh — SIGCOMM 2009): the WhiteFi system, its SIFT
// time-domain signal analysis, the MCham spectrum-assignment metric,
// the chirping disconnection protocol, and every substrate the paper's
// evaluation depends on (a discrete-event CSMA/CA simulator standing in
// for QualNet, an I/Q amplitude renderer standing in for the USRP
// scanner, and synthetic incumbent datasets standing in for TV Fool and
// the authors' campus measurements).
//
// The medium is spatial: nodes have positions, and a pluggable
// propagation model (mac.Propagation — flat by default, log-distance
// with deterministic per-link shadowing for spatial scenarios) drives
// carrier sense, frame capture, per-node airtime views, incumbent
// detection range, and SIFT pulse heights. Hidden terminals, co-channel
// spatial reuse, and genuinely divergent per-node spectrum maps are
// first-class scenarios (internal/exp/spatial.go).
//
// See README.md for the entry-point guide, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The root-level benchmarks (bench_test.go)
// regenerate every table and figure of the paper's evaluation;
// perfbench (named by BENCHMARK.json) is the speed benchmark.
//
// Performance knobs (see DESIGN.md "Hot-path architecture"):
//
//   - exp.Workers bounds the experiment runners' concurrency
//     (0 = GOMAXPROCS). Every table cell is a hermetic simulation, so
//     results are identical at any worker count.
//   - mac.Air.Retention prunes completed transmissions older than the
//     given horizon, bounding memory in long simulations
//     (mac.Air.Prune is the explicit form). Scan windows must not
//     reach behind the horizon.
//   - Scan windows stream USRP-sized blocks through the incremental
//     sift.Detector, and stretches of pure receiver noise are skipped
//     outright when the SIFT threshold is above iq.MaxNoiseAmplitude.
package whitefi
