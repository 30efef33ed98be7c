// Package unet is a library-scale reproduction of "U-Net: A User-Level
// Network Interface for Parallel and Distributed Computing" (von Eicken,
// Basu, Buch, Vogels — SOSP 1995).
//
// The U-Net architecture itself — endpoints, communication segments,
// send/receive/free queues, message tags, protection, kernel emulation and
// direct access — is implemented in full in internal/unet; the 1995
// hardware it ran on (Fore ATM interfaces, an ASX-200 switch,
// SPARCstations under SunOS) is replaced by calibrated discrete-event
// models, so every latency and bandwidth experiment in the paper can be
// regenerated deterministically on a laptop.
//
// Layout:
//
//	internal/sim        process-oriented discrete-event engine
//	internal/atm        cells, VCIs, AAL5 segmentation + CRC-32
//	internal/fabric     fiber links, ASX-200 switch, link-local VCI labels
//	internal/topo       topology specs (the paper's one-switch star, Clos, rings) and their compiler
//	internal/nic        SBA-200 (U-Net firmware), SBA-100, Fore firmware
//	internal/unet       the U-Net architecture (the paper's contribution)
//	internal/uam        U-Net Active Messages (GAM 1.1 style)
//	internal/splitc     Split-C runtime + the seven §6 benchmarks
//	internal/machine    CM-5 and Meiko CS-2 models (Table 2)
//	internal/ip         IP-over-U-Net, UDP (§7.6), TCP (§7.7-7.8)
//	internal/kernelpath BSD kernel-path baseline (mbufs, sockets, drivers)
//	internal/experiments  the evaluation as one table (experiments.All) over its drivers
//	cmd/unetbench       regenerate any row of it, or make one ad-hoc measurement
//	bench/              the wall-clock and memory ledger (go run ./bench)
//	examples/           runnable walkthroughs of the public API
//
// See DESIGN.md for the substitution rationale and the experiment index,
// and EXPERIMENTS.md for paper-versus-measured results.
package unet
