// micro_substrates — the before/after gate for the kernel work (DESIGN.md
// §12): scalar vs AVX2 through tensor::simd::force_isa on the same binary,
// in the same run — blocked GEMM, im2col conv2d forward, and one full LeNet
// data-parallel training epoch. The two ISA paths are bit-identical (the
// parity suite asserts exact equality), so this measures pure throughput,
// not an accuracy trade.
//
// A second section times one training epoch at 1 and at 2 workers on
// sim::RealBackend's shapes (LeNet on 20x20 images, the LSTM on 16-token
// sequences with an 8-wide embedding, trainer batch 16): what the worker
// team, the split evaluation and the GEMM column paths buy a real epoch
// (DESIGN.md §12 "Real epochs"). It is reported, not gated: the speedup
// depends on how many cores the host can spare.
//
// A third section times the per-job middleware operations whose cost must
// not grow with uptime: a ground-truth lookup at 16/256/1024 entries and the
// metrics store's unfiltered count() (the policy's pseudo-clock) at 160k
// points.
//
// Timing follows the calibrate → warm up → repeat → p50/p99 protocol from
// bench_timing.hpp. Results land in BENCH_micro.json next to the binary;
// the gate claims ≥2× epoch throughput, a 1024-entry lookup under 1 ms and
// a count() under 10 µs.

#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "bench_timing.hpp"
#include "pipetune/core/ground_truth.hpp"
#include "pipetune/data/synthetic.hpp"
#include "pipetune/metricsdb/tsdb.hpp"
#include "pipetune/nn/models.hpp"
#include "pipetune/nn/trainer.hpp"
#include "pipetune/tensor/ops.hpp"
#include "pipetune/tensor/simd.hpp"
#include "pipetune/util/fs.hpp"
#include "pipetune/util/json.hpp"
#include "pipetune/util/rng.hpp"
#include "pipetune/util/table.hpp"

namespace {

using namespace pipetune;

constexpr std::size_t kGemmDim = 192;

/// One before/after pair plus its ratio, as it lands in the JSON artifact.
struct Comparison {
    std::string name;
    bench::TimingSummary before;  ///< scalar kernels
    bench::TimingSummary after;   ///< AVX2 kernels
    // Ratio of per-side minimum repetitions. On a shared (or single-core)
    // host, interference only ever adds time, so min-of-reps is the least
    // biased estimate of intrinsic cost; p50/p99 are still reported so the
    // spread is visible (DESIGN.md §12).
    double speedup = 0.0;

    util::Json to_json(const char* before_key, const char* after_key) const {
        util::Json doc = util::Json::object();
        doc[before_key] = before.to_json();
        doc[after_key] = after.to_json();
        doc["speedup"] = speedup;
        return doc;
    }
};

/// Run `fn` under both ISAs (dispatch restored afterwards). The per-call
/// work must be identical across ISAs — force_isa only swaps the kernel
/// table. Calibration happens once, on the slower scalar side, so both ISAs
/// are measured over the same inner count; repetitions interleave the two
/// ISAs (bench::measure_paired) so ambient noise cannot bias one side.
template <typename Fn>
Comparison compare_isa(std::string name, Fn&& fn, std::size_t repetitions = 11,
                       double min_rep_s = 0.02) {
    Comparison result;
    result.name = std::move(name);
    tensor::simd::force_isa(tensor::simd::Isa::kScalar);
    const std::size_t inner = bench::calibrate_iterations(fn, min_rep_s);
    auto [before, after] = bench::measure_paired(
        [&] {
            tensor::simd::force_isa(tensor::simd::Isa::kScalar);
            fn();
        },
        [&] {
            tensor::simd::force_isa(tensor::simd::Isa::kAvx2);
            fn();
        },
        repetitions, inner);
    tensor::simd::reset_isa();
    result.before = before;
    result.after = after;
    result.speedup = result.after.min_s > 0.0 ? result.before.min_s / result.after.min_s : 0.0;
    return result;
}

nn::Trainer make_trainer(const data::TrainTestPair& split) {
    nn::ImageModelConfig model_config;
    model_config.image_size = 20;
    model_config.classes = 4;
    model_config.seed = 3;
    nn::TrainerConfig trainer_config;
    trainer_config.batch_size = 16;
    trainer_config.sgd.learning_rate = 0.05;
    return nn::Trainer(nn::build_lenet5(model_config), *split.train, *split.test,
                       trainer_config);
}

/// One epoch of a fresh model per side, 1 worker vs 2, repetitions
/// interleaved; speedup is the ratio of the per-side minima.
template <typename Build>
Comparison compare_workers(std::string name, const data::TrainTestPair& split, Build build) {
    auto make = [&] {
        nn::TrainerConfig config;
        config.batch_size = 16;
        config.sgd.learning_rate = 0.05;
        config.sgd.momentum = 0.9;
        return nn::Trainer(build(), *split.train, *split.test, config);
    };
    nn::Trainer one = make();
    nn::Trainer two = make();
    Comparison result;
    result.name = std::move(name);
    std::tie(result.before, result.after) = bench::measure_paired(
        [&] { one.run_epoch(1); }, [&] { two.run_epoch(2); }, /*repetitions=*/9,
        /*inner_iterations=*/1);
    result.speedup = result.after.min_s > 0.0 ? result.before.min_s / result.after.min_s : 0.0;
    return result;
}

std::string ms(double seconds) { return util::Table::num(1e3 * seconds, 3); }
std::string us(double seconds) { return util::Table::num(1e6 * seconds, 3); }

constexpr std::size_t kProfileDims = 58;  // perf::mean_features' width

/// A default-config store of `n` profiles from two well-separated workload
/// groups, loaded the way a daemon restart loads it (one refit).
core::GroundTruth make_store(std::size_t n, util::Rng& rng) {
    util::Json entries = util::Json::array();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> features(kProfileDims);
        const double base = i % 2 == 0 ? 2.0 : 9.0;
        for (auto& x : features) x = base + rng.normal(0.0, 0.3);
        util::Json entry;
        entry["features"] = util::Json::array_of(features);
        entry["cores"] = 4 + i % 13;
        entry["memory_gb"] = 4 + i % 29;
        entries.push_back(std::move(entry));
    }
    util::Json doc;
    doc["entries"] = std::move(entries);
    return core::GroundTruth::from_json(doc);
}

/// A metrics store shaped like a long-running daemon's: `epochs` epochs of
/// the three policy series, each point tagged like PipeTunePolicy tags it.
metricsdb::TimeSeriesDb make_metrics(std::size_t epochs) {
    metricsdb::TimeSeriesDb db;
    for (std::size_t e = 0; e < epochs; ++e) {
        const metricsdb::TagSet tags{{"trial", std::to_string(1 + e / 27 % 40)},
                                     {"epoch", std::to_string(1 + e % 27)},
                                     {"phase", e % 27 < 2 ? "profiling" : "tuned"},
                                     {"system", "8c/16g@2.4"}};
        const double t = static_cast<double>(e);
        db.append("epoch_duration", t, 1.0, tags);
        db.append("epoch_energy", t, 2.0, tags);
        db.append("epoch_accuracy", t, 0.5, tags);
    }
    return db;
}

}  // namespace

int main() {
    bench::print_header("BENCH micro",
                        "hot-path before/after gate: scalar vs AVX2 kernels");
    const bool has_avx2 = tensor::simd::best_isa() == tensor::simd::Isa::kAvx2;
    std::cout << "host ISA: best=" << tensor::simd::to_string(tensor::simd::best_isa())
              << " active=" << tensor::simd::to_string(tensor::simd::active_isa()) << "\n\n";

    util::Json doc = util::Json::object();
    doc["bench"] = "micro";
    doc["best_isa"] = tensor::simd::to_string(tensor::simd::best_isa());
    std::vector<bench::Claim> claims;
    util::Table table({"substrate", "before p50 ms", "after p50 ms", "after p99 ms", "speedup"});

    if (has_avx2) {
        util::Rng rng(1);
        const tensor::Tensor a = tensor::Tensor::uniform({kGemmDim, kGemmDim}, rng);
        const tensor::Tensor b = tensor::Tensor::uniform({kGemmDim, kGemmDim}, rng);
        auto gemm = compare_isa("gemm_" + std::to_string(kGemmDim),
                                [&] { tensor::matmul(a, b); });

        const tensor::Tensor input = tensor::Tensor::uniform({8, 1, 28, 28}, rng);
        const tensor::Tensor kernel = tensor::Tensor::uniform({6, 1, 5, 5}, rng);
        const tensor::Tensor bias({6});
        auto conv = compare_isa("conv2d_8x1x28x28",
                                [&] { tensor::conv2d(input, kernel, bias); });

        data::ImageDatasetConfig data_config;
        data_config.classes = 4;
        data_config.samples = 64;
        data_config.image_size = 20;
        data_config.seed = 3;
        auto split = data::make_image_split(data_config, "bench", 16);
        auto trainer = make_trainer(split);
        auto epoch = compare_isa("epoch_lenet", [&] { trainer.run_epoch(1); },
                                 /*repetitions=*/7, /*min_rep_s=*/0.0);

        for (const auto* c : {&gemm, &conv, &epoch})
            table.add_row({c->name, ms(c->before.p50_s), ms(c->after.p50_s),
                           ms(c->after.p99_s), util::Table::num(c->speedup, 2) + "x"});
        std::cout << table.render() << "\n";
        util::Json kernels = util::Json::object();
        for (const auto* c : {&gemm, &conv, &epoch})
            kernels[c->name] = c->to_json("scalar", "avx2");
        doc["kernels"] = std::move(kernels);

        claims.push_back({"vectorised GEMM beats scalar", ">= 2x",
                          util::Table::num(gemm.speedup, 2) + "x", gemm.speedup >= 2.0});
        claims.push_back({"im2col conv rides the GEMM speedup", ">= 1.5x",
                          util::Table::num(conv.speedup, 2) + "x", conv.speedup >= 1.5});
        claims.push_back({"epoch throughput (the paper's trial clock)", ">= 2x",
                          util::Table::num(epoch.speedup, 2) + "x", epoch.speedup >= 2.0});
    } else {
        // Scalar-only host: nothing to compare against — the gate is about
        // the AVX2 build, so record the skip instead of a fake pass/fail.
        doc["kernels"] = "skipped: host lacks AVX2";
        std::cout << "kernel substrate skipped: host lacks AVX2\n";
    }

    {
        data::ImageDatasetConfig image;
        image.classes = 6;
        image.samples = 192;
        image.image_size = 20;
        image.seed = 5;
        const auto images = data::make_image_split(image, "mnist", 64);
        data::TextDatasetConfig text;
        text.classes = 6;
        text.samples = 192;
        text.vocab_size = 400;
        text.seq_len = 16;
        text.topic_strength = 0.7;
        text.seed = 6;
        const auto texts = data::make_text_split(text, "news20", 64);
        const auto lenet = compare_workers("epoch_lenet", images, [] {
            nn::ImageModelConfig config;
            config.image_size = 20;
            config.classes = 6;
            return nn::build_lenet5(config);
        });
        const auto lstm = compare_workers("epoch_lstm", texts, [] {
            nn::TextModelConfig config;
            config.vocab_size = 400;
            config.seq_len = 16;
            config.classes = 6;
            config.embedding_dim = 8;
            return nn::build_lstm_classifier(config);
        });
        util::Table workers({"epoch", "1 worker p50 ms", "2 workers p50 ms", "speedup"});
        util::Json workers_doc = util::Json::object();
        for (const auto* c : {&lenet, &lstm}) {
            workers.add_row({c->name, ms(c->before.p50_s), ms(c->after.p50_s),
                             util::Table::num(c->speedup, 2) + "x"});
            workers_doc[c->name] = c->to_json("workers_1", "workers_2");
        }
        std::cout << workers.render() << "\n";
        doc["workers"] = std::move(workers_doc);
    }

    // Per-job middleware operations, timed on the code as it is: these are
    // absolute budgets, not before/after pairs.
    util::Table middleware({"operation", "p50 us", "p99 us"});
    util::Json middleware_doc = util::Json::object();
    util::Rng store_rng(7);
    double lookup_1024_s = 0.0;
    for (std::size_t n : {16, 256, 1024}) {
        const core::GroundTruth store = make_store(n, store_rng);
        const std::vector<double> query = store.entries()[n / 2].features;
        double score = 0.0;
        const auto timing = bench::measure_calibrated([&] { (void)store.lookup(query, &score); });
        const std::string name = "gt_lookup_" + std::to_string(n);
        middleware.add_row({name, us(timing.p50_s), us(timing.p99_s)});
        middleware_doc[name] = timing.to_json();
        if (n == 1024) lookup_1024_s = timing.p50_s;
    }
    const metricsdb::TimeSeriesDb metrics = make_metrics(160000 / 3 + 1);
    const metricsdb::Query clock{.series = "epoch_duration"};
    std::size_t sink = 0;
    const auto count = bench::measure_calibrated([&] { sink += metrics.count(clock); });
    const std::string count_name = "metrics_count_" + std::to_string(metrics.total_points());
    middleware.add_row({count_name, us(count.p50_s), us(count.p99_s)});
    middleware_doc[count_name] = count.to_json();
    doc["middleware"] = std::move(middleware_doc);
    std::cout << middleware.render() << "(count checksum " << sink % 10 << ")\n\n";

    claims.push_back({"ground-truth lookup, 1024 entries", "< 1 ms", ms(lookup_1024_s) + " ms",
                      lookup_1024_s < 1e-3});
    claims.push_back({"metrics count() pseudo-clock, 160k points", "< 10 us",
                      us(count.p50_s) + " us", count.p50_s < 10e-6});

    bench::print_claims(claims);

    const std::string out = "BENCH_micro.json";
    auto written = util::try_write_file_atomic(out, doc.dump(2) + "\n");
    if (!written.ok()) {
        std::cerr << "failed to write " << out << ": " << written.error() << "\n";
        return 1;
    }
    std::cout << "\nwrote " << out << "\n";
    return 0;
}
