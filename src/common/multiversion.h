// Function multiversioning for the batched prediction kernels.
//
// The hot row kernels (GemvRowMajor, ExpRow/LogRow/SigmoidRow, InverseRow)
// are written as straight-line vectorizable loops, but the binary is built
// for baseline x86-64 (SSE2) so it stays portable. AMF_MULTIVERSION
// compiles such a function several times — baseline, x86-64-v3 (AVX2+FMA)
// and x86-64-v4 (AVX-512) — and lets the dynamic loader pick the widest
// variant the host supports via an ifunc resolver, at zero per-call cost.
//
// Only apply this to PREDICTION-side kernels. Training kernels (the
// AmfModel update kernel, Dot/Axpy) intentionally stay single-version so
// that a fixed seed replays to bit-identical factors on every machine; the
// prediction readout only promises ~1e-12 agreement with the scalar path,
// which FMA/width differences comfortably satisfy.
//
// On non-x86 or non-ELF targets the macro expands to nothing and the
// plain (still auto-vectorized where possible) build is used. It is also
// disabled under ThreadSanitizer: the ifunc resolvers target_clones
// emits run before TSan's runtime is initialized and crash at load time.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define AMF_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AMF_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(AMF_TSAN_BUILD)
#define AMF_MULTIVERSION \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define AMF_MULTIVERSION
#endif
