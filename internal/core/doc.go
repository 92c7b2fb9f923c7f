// Package core implements the WhiteFi node logic: the access point and
// client state machines that tie together spectrum assignment (package
// assign), SIFT-based measurement (packages sift and radio), AP
// discovery (package discovery) and disconnection handling (package
// chirp) over the CSMA/CA medium (package mac).
//
// The protocol, following Section 4:
//
//   - The AP beacons every DefaultBeaconInterval; each beacon
//     advertises the current channel and the 5 MHz backup channel, and
//     is followed one SIFS later by a CTS-to-self so SIFT can
//     fingerprint it.
//   - Clients associate, then periodically report their spectrum map and
//     airtime observations to the AP in control frames.
//   - The AP periodically re-evaluates the channel with the MCham metric
//     over its own and all clients' observations (client-weighted,
//     hysteresis on voluntary switches, revert if throughput drops), and
//     broadcasts switch announcements before retuning.
//   - When an incumbent (wireless microphone) appears on the operating
//     channel at any node, that node vacates immediately and moves to the
//     backup channel, where it chirps. The AP's secondary radio scans the
//     backup channel every DefaultBackupScanPeriod; on detecting a chirp
//     of its own network it moves its main radio there, collects the
//     chirped spectrum maps for DefaultChirpCollect, reassigns spectrum,
//     and announces the new channel.
//
// In the system inventory (DESIGN.md) this package stands in for the
// WhiteFi AP and client implementations of the prototype.
package core
