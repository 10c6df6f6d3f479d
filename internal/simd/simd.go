// Package simd provides the hot-loop distance kernels of the SOFA
// reproduction (paper Section IV-H) behind a runtime dispatch layer:
//
//   - kernels.go defines the exported per-series kernel API (SquaredEDEA,
//     Dot, LBDGatherEA, LookupAccumEASeq) and the portable pure-Go
//     references that fix each kernel's canonical bit-level semantics;
//   - kernels_amd64.s implements the same semantics with AVX2+FMA assembly
//     (VFMADD accumulation, VGATHERQPD bound gathers, VCMPPD/VBLENDVPD
//     three-way selects); cpuid_amd64.go probes the hardware at init and
//     dispatch_amd64.go routes each call. Assembly and reference are
//     bit-identical on every input (kernels_parity_test.go), so results do
//     not depend on the platform. Build with -tags noasm, or set
//     SOFA_NOSIMD in the environment, to force the portable path;
//   - kernels_block.go and kernels_block_amd64.s hold the block tier: one
//     call lower-bounds a whole leaf (series across lanes, AVX-512 over
//     AVX2 over the reference), the table-lookup kernel in two
//     early-abandoning stages that hand the caller a survivor list.
package simd
