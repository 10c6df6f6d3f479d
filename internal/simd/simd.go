// Package simd provides the hot-loop distance kernels of the SOFA
// reproduction (paper Section IV-H) behind a runtime dispatch layer:
//
//   - kernels.go defines the exported per-series kernel API (SquaredEDEA
//     and SquaredEDEARead, Dot, LookupAccumEASeq) and the portable pure-Go
//     references that fix each kernel's canonical bit-level semantics;
//   - kernels_amd64.s implements the same semantics with AVX2+FMA assembly
//     (VFMADD accumulation, the canonical reduction tree); cpuid_amd64.go
//     probes the hardware at init and dispatch_amd64.go routes each call.
//     Assembly and reference are bit-identical on every input
//     (kernels_parity_test.go), so results do not depend on the platform.
//     Build with -tags noasm, or set SOFA_NOSIMD in the environment, to
//     force the portable path;
//   - Prefetch, the refinement walk's row hint, is PREFETCHT0 assembly
//     dispatched the same way and a no-op on the portable path;
//   - kernels_project.go and kernels_project_amd64.s hold Project, the SFA
//     transform of a block of rows: every (row, basis row) dot product
//     bit-identical to Dot, computed by a register tile (2 rows x 4 basis
//     rows of ZMM accumulators on AVX-512, 3 rows x 1 of YMM on AVX2) that
//     loads each basis block once per tile; the portable tier loops Dot;
//   - kernels_block.go and kernels_block_amd64.s hold the block tier: one
//     call lower-bounds a whole leaf (series across lanes, AVX-512 over
//     AVX2 over the reference), the table-lookup kernel in two
//     early-abandoning stages that hand the caller a survivor list. It is
//     the only LBD kernel the index runs; LBDGatherBlockEA, the same bound
//     computed from the raw intervals (Algorithm 3's Gather_bound), is a
//     pure-Go reference with no assembly tier.
package simd
