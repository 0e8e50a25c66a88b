// Package hypertap is a from-scratch Go reproduction of "Reliability and
// Security Monitoring of Virtual Machines Using Hardware Architectural
// Invariants" (Pham, Estrada, Cao, Kalbarczyk, Iyer — DSN 2014).
//
// The module contains the HyperTap monitoring framework (unified event
// logging over simulated Hardware-Assisted Virtualization, with independent
// auditors), the full substrate it needs (a HAV/EPT model, a miniOS guest
// kernel with byte-serialized kernel structures, a KVM-like hypervisor,
// traditional VMI), the paper's three example auditors (GOSHD, HRKD, the
// Ninja family for PED), the attack and fault-injection tooling of its
// evaluation, and one experiment harness per table and figure.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// simulation-substitution rationale, and EXPERIMENTS.md for reproduced
// numbers. The golden tests in internal/experiment pin each table and
// figure's harness at reduced scale; the cmd/ tools run them at paper scale,
// and `make experiments` diffs their output against results/.
package hypertap
