/**
 * @file
 * M1 — microbenchmarks of the toolkit's hot kernels.
 *
 * Two parts:
 *
 *  1. A deterministic SIMD-kernel phase (runs first, under its own
 *     BenchReportGuard) that times the dispatched characterization
 *     kernels — histogram binning, IDC window counting, the Welford
 *     gap fold — against the scalar reference on 4096-request
 *     batches, prints the speedup table, and snapshots BENCH_kernels
 *     .json for the bench-diff CI gate.  The phase does fixed work,
 *     so every counter in the snapshot is reproducible to the digit.
 *     When the AVX2 table is dispatchable, the phase *enforces* the
 *     >= 2x speedup floor on linear-histogram binning and IDC
 *     counting by exiting nonzero below it.
 *
 *  2. The pre-existing google-benchmark suite (workload synthesis,
 *     drive servicing, binary trace I/O, estimators) plus per-ISA
 *     kernel benchmarks.  Adaptive iteration counts make gbench
 *     numbers non-deterministic, which is why this part runs after
 *     the guard above has been destroyed and is not snapshot-gated.
 *     `--kernels-only` skips it (what CI runs).
 */

#include <benchmark/benchmark.h>

#include "obs/export.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "core/burstiness.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "obs/metrics.hh"
#include "stats/histogram.hh"
#include "stats/hurst.hh"
#include "stats/simd/kernels.hh"
#include "stats/simd/simd.hh"
#include "stats/timeseries.hh"
#include "synth/bmodel.hh"
#include "trace/aggregate.hh"
#include "trace/binio.hh"

using namespace dlw;

namespace
{

// ------------------------------------------------------------------
// Deterministic kernel phase
// ------------------------------------------------------------------

namespace simd = stats::simd;

/** Batch size the acceptance numbers are quoted at. */
constexpr std::size_t kBatch = 4096;

/** Local xorshift so inputs never depend on libc or repo RNG state. */
struct XRng
{
    std::uint64_t s;
    explicit XRng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    double
    uniform(double lo, double hi)
    {
        const double u = static_cast<double>(next() >> 11) *
                         0x1.0p-53;
        return lo + u * (hi - lo);
    }
};

/** Bursty sorted arrivals: long same-bin runs, like real traces. */
std::vector<Tick>
burstyTicks(std::size_t n)
{
    std::vector<Tick> t;
    t.reserve(n);
    XRng rng(0xd15c);
    Tick now = 0;
    while (t.size() < n) {
        const std::size_t burst = 1 + rng.next() % 37;
        for (std::size_t i = 0; i < burst && t.size() < n; ++i) {
            t.push_back(now);
            if (rng.next() % 4 == 0)
                now += static_cast<Tick>(rng.next() % 3);
        }
        now += static_cast<Tick>(rng.next() % (20 * kMsec));
    }
    return t;
}

std::vector<double>
uniformSamples(std::size_t n, double lo, double hi)
{
    std::vector<double> xs;
    xs.reserve(n);
    XRng rng(0x5a11);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(rng.uniform(lo, hi));
    return xs;
}

double
nowSecs()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-3 seconds per call of f() over `reps` calls per trial. */
template <typename F>
double
secsPerCall(F &&f, int reps)
{
    f(); // warm caches and the dispatch pointer
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double t0 = nowSecs();
        for (int i = 0; i < reps; ++i)
            f();
        const double dt = (nowSecs() - t0) / reps;
        if (dt < best)
            best = dt;
    }
    return best;
}

struct KernelRow
{
    simd::Isa isa;
    double bin_linear = 0.0;
    double bin_log = 0.0;
    double count_sorted = 0.0;
    double welford = 0.0;
    double gaps = 0.0;
    double reduce = 0.0;
};

/**
 * Time every kernel for one ISA.  All scratch is preallocated by the
 * caller so the loops measure kernel work, not allocation.
 */
KernelRow
timeIsa(simd::Isa isa, const std::vector<double> &lin_xs,
        const std::vector<double> &log_xs,
        const std::vector<Tick> &ticks,
        const std::vector<double> &gap_xs,
        const std::vector<std::uint8_t> &dirs,
        const std::vector<std::uint32_t> &blocks,
        std::vector<std::int32_t> &idx, std::vector<double> &bins,
        std::vector<double> &gaps_out)
{
    simd::force(isa);
    const simd::KernelOps &k = simd::ops();
    constexpr int kReps = 2000;
    const double log_lo = -3.0;
    const double inv_log_width = 8.0; // bins per decade

    KernelRow row;
    row.isa = isa;
    row.bin_linear = secsPerCall(
        [&] {
            k.bin_linear(lin_xs.data(), kBatch, 0.0, 100.0,
                         64 / 100.0, 64, idx.data());
            benchmark::DoNotOptimize(idx.data());
        },
        kReps);
    row.bin_log = secsPerCall(
        [&] {
            k.bin_log(log_xs.data(), kBatch, 1e-3, 1e4, log_lo,
                      inv_log_width, 56, idx.data());
            benchmark::DoNotOptimize(idx.data());
        },
        kReps);
    row.count_sorted = secsPerCall(
        [&] {
            // Bins stay integral and far below 2^53 for the whole
            // bench, so repeated counting into the same series is
            // exact and allocation-free.
            k.count_sorted(ticks.data(), kBatch, 0, 10 * kMsec,
                           bins.data(), bins.size());
            benchmark::DoNotOptimize(bins.data());
        },
        kReps);
    row.welford = secsPerCall(
        [&] {
            simd::SummaryLanes lanes;
            k.welford_add(lanes, gap_xs.data(), kBatch);
            benchmark::DoNotOptimize(&lanes);
        },
        kReps / 2);
    row.gaps = secsPerCall(
        [&] {
            k.gaps_i64(ticks.data(), kBatch, -1, gaps_out.data());
            benchmark::DoNotOptimize(gaps_out.data());
        },
        kReps);
    row.reduce = secsPerCall(
        [&] {
            std::uint64_t r =
                k.count_eq_u8(dirs.data(), kBatch, 0) +
                k.sum_u32(blocks.data(), kBatch);
            benchmark::DoNotOptimize(r);
        },
        kReps);
    return row;
}

/**
 * Run the deterministic phase: per-ISA timings, speedup table,
 * snapshot metrics.  Returns nonzero when the AVX2 speedup floor
 * (>= 2x on linear binning and IDC counting) is violated.
 */
int
runKernelPhase()
{
    // Inputs: one batch of everything, shared across ISAs.
    const std::vector<double> lin_xs =
        uniformSamples(kBatch, -5.0, 110.0);
    const std::vector<double> log_xs =
        uniformSamples(kBatch, 1e-4, 2e4);
    const std::vector<Tick> ticks = burstyTicks(kBatch);
    std::vector<double> gap_xs(kBatch);
    simd::detail::kScalarOps.gaps_i64(ticks.data(), kBatch, -1,
                                      gap_xs.data());
    std::vector<std::uint8_t> dirs(kBatch);
    std::vector<std::uint32_t> blocks(kBatch);
    XRng rng(0xb10c);
    for (std::size_t i = 0; i < kBatch; ++i) {
        dirs[i] = static_cast<std::uint8_t>(rng.next() % 2);
        blocks[i] = 1 + static_cast<std::uint32_t>(rng.next() % 256);
    }
    std::vector<std::int32_t> idx(kBatch);
    const auto nbins = static_cast<std::size_t>(
        (ticks.back() / (10 * kMsec)) + 1);
    std::vector<double> bins(nbins, 0.0);
    std::vector<double> gaps_out(kBatch);

    std::vector<KernelRow> rows;
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
        if (!simd::supported(isa))
            continue;
        rows.push_back(timeIsa(isa, lin_xs, log_xs, ticks, gap_xs,
                               dirs, blocks, idx, bins, gaps_out));
    }
    simd::force(simd::bestSupported());

    const KernelRow &scalar = rows.front();
    std::printf("SIMD kernel timings, %zu-request batches "
                "(ns/element, best of 3; speedup vs scalar)\n",
                kBatch);
    std::printf("%-8s %-22s %-22s %-22s %-22s\n", "isa",
                "bin_linear", "count_sorted(IDC)", "bin_log",
                "welford");
    auto cell = [](double secs, double base) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%7.2f (%4.2fx)",
                      secs / kBatch * 1e9, base / secs);
        return std::string(buf);
    };
    for (const KernelRow &r : rows) {
        std::printf("%-8s %-22s %-22s %-22s %-22s\n",
                    simd::isaName(r.isa),
                    cell(r.bin_linear, scalar.bin_linear).c_str(),
                    cell(r.count_sorted, scalar.count_sorted).c_str(),
                    cell(r.bin_log, scalar.bin_log).c_str(),
                    cell(r.welford, scalar.welford).c_str());
    }

    // Deterministic end-to-end slice so the snapshot also carries the
    // wired accumulator counters (core.pass.*, core.kernel.*).
    {
        trace::MsTrace tr;
        XRng trng(0x7ace);
        std::vector<Tick> arrivals = burstyTicks(50000);
        for (Tick t : arrivals) {
            trace::Request r;
            r.arrival = t;
            r.lba = trng.next() % (1u << 24);
            r.blocks =
                1 + static_cast<BlockCount>(trng.next() % 256);
            r.op = trng.next() % 3 ? trace::Op::Write
                                   : trace::Op::Read;
            tr.appendExtending(r);
        }
        core::BurstinessAccumulator burst;
        core::RwMixAccumulator rw;
        core::TraceTotalsAccumulator totals;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(burst);
        pass.add(rw);
        pass.add(totals);
        pass.run(src);
        obs::counter("bench.kernels.pass_requests", "requests",
                     "bench", "requests streamed through the fused "
                     "pass by the kernel phase (fixed work)")
            .add(totals.count());
    }
    // Fixed-work volume counter: reps * batch per timed kernel.  The
    // bench-diff gate holds this to +-5%, i.e. exactly equal, so the
    // wall-time comparison always covers the same work.
    obs::counter("bench.kernels.elements", "elements", "bench",
                 "kernel-folded elements in the timed phase "
                 "(fixed work)")
        .add(static_cast<std::uint64_t>(rows.size()) *
             (5 * 2000 + 1000) * kBatch);

    int rc = 0;
    const bool have_avx2 = simd::supported(simd::Isa::kAvx2);
    obs::Gauge &lin_ok = obs::gauge(
        "bench.kernels.avx2_binlinear_ge2x", "bool", "bench",
        "1 when the AVX2 linear-binning kernel beat scalar by >= 2x");
    obs::Gauge &idc_ok = obs::gauge(
        "bench.kernels.avx2_idc_ge2x", "bool", "bench",
        "1 when the AVX2 IDC counting kernel beat scalar by >= 2x");
    if (have_avx2) {
        const KernelRow &avx2 = rows.back();
        const double lin_speedup = scalar.bin_linear / avx2.bin_linear;
        const double idc_speedup =
            scalar.count_sorted / avx2.count_sorted;
        lin_ok.set(lin_speedup >= 2.0 ? 1 : 0);
        idc_ok.set(idc_speedup >= 2.0 ? 1 : 0);
        if (lin_speedup < 2.0 || idc_speedup < 2.0) {
            std::fprintf(stderr,
                         "FAIL: AVX2 speedup floor (>= 2x) violated: "
                         "bin_linear %.2fx, count_sorted %.2fx\n",
                         lin_speedup, idc_speedup);
            rc = 1;
        }
    } else {
        std::printf("AVX2 not dispatchable on this build/CPU; "
                    "speedup floor not checked\n");
    }
    return rc;
}

// ------------------------------------------------------------------
// google-benchmark suite (non-deterministic, not snapshot-gated)
// ------------------------------------------------------------------

trace::MsTrace
sampleTrace(Tick window)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 200.0);
    return w.generate(rng, "micro", 0, window);
}

void
BM_WorkloadGenerate(benchmark::State &state)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 200.0);
    std::uint64_t requests = 0;
    for (auto _ : state) {
        trace::MsTrace tr = w.generate(rng, "g", 0, 10 * kSec);
        requests += tr.size();
        benchmark::DoNotOptimize(tr);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_WorkloadGenerate);

void
BM_DriveService(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(10 * kSec);
    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    std::uint64_t requests = 0;
    for (auto _ : state) {
        disk::DiskDrive drive(cfg);
        disk::ServiceLog log = drive.service(tr);
        requests += log.completions.size();
        benchmark::DoNotOptimize(log);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_DriveService);

void
BM_BModelCounts(benchmark::State &state)
{
    Rng rng(2);
    synth::BModel bm(0.8, static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        auto counts = bm.counts(rng, 1'000'000);
        benchmark::DoNotOptimize(counts);
    }
}
BENCHMARK(BM_BModelCounts)->Arg(12)->Arg(16)->Arg(20);

void
BM_BinaryRoundTrip(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(30 * kSec);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        std::stringstream ss(std::ios::in | std::ios::out |
                             std::ios::binary);
        trace::writeMsBinary(ss, tr);
        trace::MsTrace back =
            trace::readMsBinary(ss, trace::IngestOptions{}).valueOrThrow();
        bytes += ss.str().size();
        benchmark::DoNotOptimize(back);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BinaryRoundTrip);

void
BM_HurstAggVar(benchmark::State &state)
{
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < 1 << 16; ++i)
        xs.push_back(static_cast<double>(rng.poisson(10.0)));
    for (auto _ : state) {
        auto est = stats::hurstAggregatedVariance(xs);
        benchmark::DoNotOptimize(est);
    }
}
BENCHMARK(BM_HurstAggVar);

void
BM_BurstinessReport(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(60 * kSec);
    for (auto _ : state) {
        auto rep = core::analyzeBurstiness(tr);
        benchmark::DoNotOptimize(rep);
    }
}
BENCHMARK(BM_BurstinessReport);

void
BM_MsToHour(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(60 * kSec);
    for (auto _ : state) {
        auto hour = trace::msToHour(tr);
        benchmark::DoNotOptimize(hour);
    }
}
BENCHMARK(BM_MsToHour);

void
BM_FamilyHourSynthesis(benchmark::State &state)
{
    synth::FamilyModel family = bench::makeFamily();
    synth::DriveProfile p = family.sampleProfile(0);
    for (auto _ : state) {
        auto t = family.generateHourTrace(p, 24 * 7);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_FamilyHourSynthesis);

/** Per-ISA gbench view of the hottest kernels (arg = Isa). */
void
BM_KernelBinLinear(benchmark::State &state)
{
    const auto isa = static_cast<simd::Isa>(state.range(0));
    if (!simd::supported(isa)) {
        state.SkipWithError("isa not dispatchable");
        return;
    }
    simd::force(isa);
    const std::vector<double> xs = uniformSamples(kBatch, -5.0, 110.0);
    std::vector<std::int32_t> idx(kBatch);
    for (auto _ : state) {
        simd::ops().bin_linear(xs.data(), kBatch, 0.0, 100.0,
                               64 / 100.0, 64, idx.data());
        benchmark::DoNotOptimize(idx.data());
    }
    simd::force(simd::bestSupported());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_KernelBinLinear)->Arg(0)->Arg(1)->Arg(2);

void
BM_KernelCountSorted(benchmark::State &state)
{
    const auto isa = static_cast<simd::Isa>(state.range(0));
    if (!simd::supported(isa)) {
        state.SkipWithError("isa not dispatchable");
        return;
    }
    simd::force(isa);
    const std::vector<Tick> ticks = burstyTicks(kBatch);
    const auto nbins = static_cast<std::size_t>(
        (ticks.back() / (10 * kMsec)) + 1);
    std::vector<double> bins(nbins, 0.0);
    for (auto _ : state) {
        simd::ops().count_sorted(ticks.data(), kBatch, 0, 10 * kMsec,
                                 bins.data(), bins.size());
        benchmark::DoNotOptimize(bins.data());
    }
    simd::force(simd::bestSupported());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_KernelCountSorted)->Arg(0)->Arg(1)->Arg(2);

void
BM_KernelWelford(benchmark::State &state)
{
    const auto isa = static_cast<simd::Isa>(state.range(0));
    if (!simd::supported(isa)) {
        state.SkipWithError("isa not dispatchable");
        return;
    }
    simd::force(isa);
    const std::vector<double> xs = uniformSamples(kBatch, 0.0, 1e9);
    simd::SummaryLanes lanes;
    for (auto _ : state) {
        simd::ops().welford_add(lanes, xs.data(), kBatch);
        benchmark::DoNotOptimize(&lanes);
    }
    simd::force(simd::bestSupported());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_KernelWelford)->Arg(0)->Arg(1)->Arg(2);

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool kernels_only = false;
    // Strip our flag before gbench sees the argv.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--kernels-only") == 0) {
            kernels_only = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }

    int rc;
    {
        // Scoped so BENCH_kernels.json snapshots the deterministic
        // phase only — gbench's adaptive iteration counts would
        // poison every counter in it.
        obs::BenchReportGuard obs_guard("kernels");
        rc = runKernelPhase();
    }
    if (rc != 0 || kernels_only)
        return rc;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
