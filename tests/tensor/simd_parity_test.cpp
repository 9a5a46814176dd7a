// Kernel parity suite (DESIGN.md §12): every SIMD kernel must produce
// BIT-IDENTICAL results under the scalar and AVX2 tables — exact float
// equality, no tolerances — across edge shapes: dims that are not multiples
// of the vector width, 1xN, Nx1, and zero-size. On hosts without AVX2 the
// cross-ISA cases skip and the suite still exercises the scalar table.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "pipetune/tensor/ops.hpp"
#include "pipetune/tensor/simd.hpp"
#include "pipetune/tensor/tensor.hpp"
#include "pipetune/util/rng.hpp"

namespace {

using namespace pipetune;
using tensor::Tensor;
namespace simd = tensor::simd;

std::vector<float> random_vec(std::size_t n, util::Rng& rng, float lo = -2.0f, float hi = 2.0f) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
    return v;
}

void expect_bits_equal(const std::vector<float>& a, const std::vector<float>& b,
                       const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t ba, bb;
        std::memcpy(&ba, &a[i], 4);
        std::memcpy(&bb, &b[i], 4);
        EXPECT_EQ(ba, bb) << what << " diverges at [" << i << "]: " << a[i] << " vs " << b[i];
    }
}

/// Runs `fn` once per ISA on identical inputs and asserts bitwise equality of
/// every output buffer `fn` fills into `out`.
void check_parity(const char* what,
                  const std::function<void(std::vector<std::vector<float>>&)>& fn,
                  std::size_t outputs) {
    if (simd::best_isa() != simd::Isa::kAvx2) GTEST_SKIP() << "host has no AVX2";
    std::vector<std::vector<float>> scalar_out(outputs), avx2_out(outputs);
    simd::force_isa(simd::Isa::kScalar);
    fn(scalar_out);
    simd::force_isa(simd::Isa::kAvx2);
    fn(avx2_out);
    simd::reset_isa();
    for (std::size_t i = 0; i < outputs; ++i)
        expect_bits_equal(scalar_out[i], avx2_out[i], what);
}

struct GemmShape {
    std::size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {0, 0, 0}, {0, 3, 4},  {3, 0, 4},   {3, 4, 0},   {1, 1, 1},  {1, 7, 1},
    {1, 1, 9}, {5, 1, 1},  {1, 16, 33}, {17, 3, 1},  {4, 8, 16},  // exact tile multiples
    {3, 9, 7},             // everything off-width
    {5, 13, 31},           // off-width, crosses the 2x8 gemm tile
    {9, 33, 40},           // row tail + exact column fit
};

TEST(SimdParity, Gemm) {
    util::Rng rng(42);
    for (const auto& s : kGemmShapes) {
        auto a = random_vec(s.m * s.k, rng);
        auto b = random_vec(s.k * s.n, rng);
        auto c0 = random_vec(s.m * s.n, rng);  // accumulate onto non-zero C
        check_parity(
            "gemm",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = c0;
                simd::gemm(s.m, s.k, s.n, a.data(), b.data(), out[0].data());
            },
            1);
    }
}

TEST(SimdParity, GemmBt) {
    util::Rng rng(43);
    for (const auto& s : kGemmShapes) {
        auto a = random_vec(s.m * s.k, rng);
        auto b = random_vec(s.n * s.k, rng);
        auto c0 = random_vec(s.m * s.n, rng);
        check_parity(
            "gemm_bt",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = c0;
                simd::gemm_bt(s.m, s.k, s.n, a.data(), b.data(), out[0].data());
            },
            1);
    }
}

TEST(SimdParity, GemmAt) {
    util::Rng rng(44);
    for (const auto& s : kGemmShapes) {
        auto a = random_vec(s.k * s.m, rng);
        auto b = random_vec(s.k * s.n, rng);
        auto c0 = random_vec(s.m * s.n, rng);
        if (!a.empty()) a[0] = 0.0f;  // exercise the sparsity skip
        check_parity(
            "gemm_at",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = c0;
                simd::gemm_at(s.m, s.k, s.n, a.data(), b.data(), out[0].data());
            },
            1);
    }
}

TEST(SimdParity, ElementwiseAndReductions) {
    util::Rng rng(45);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{9}, std::size_t{100}, std::size_t{1023}}) {
        auto x = random_vec(n, rng);
        auto y0 = random_vec(n, rng);
        check_parity(
            "axpy",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = y0;
                simd::axpy(n, 0.37f, x.data(), out[0].data());
            },
            1);
        check_parity(
            "scale",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = x;
                simd::scale(n, -1.7f, out[0].data());
            },
            1);
        check_parity(
            "squared_norm",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = {simd::squared_norm(n, x.data())};
            },
            1);
    }
}

TEST(SimdParity, ReluSpecialValues) {
    // NaN and signed zeros must map identically on both paths (NaN -> +0,
    // -0 -> +0, positives kept bitwise).
    std::vector<float> x = {std::nanf(""), -0.0f, 0.0f, -1.5f, 1.5f, -std::nanf(""), 3.0f,
                            -2.0f, 0.25f};
    std::vector<float> g = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f};
    check_parity(
        "relu",
        [&](std::vector<std::vector<float>>& out) {
            out[0].resize(x.size());
            simd::relu(x.size(), x.data(), out[0].data());
        },
        1);
    check_parity(
        "relu_backward",
        [&](std::vector<std::vector<float>>& out) {
            out[0] = g;
            simd::relu_backward(x.size(), x.data(), out[0].data());
        },
        1);
    // Pin the semantics, not just parity: NaN and non-positives gate to +0.
    std::vector<float> y(x.size());
    simd::relu(x.size(), x.data(), y.data());
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_FALSE(std::signbit(y[1]));
    EXPECT_EQ(y[3], 0.0f);
    EXPECT_EQ(y[4], 1.5f);
}

TEST(SimdParity, OptimizerSteps) {
    util::Rng rng(46);
    for (std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{64}, std::size_t{257}}) {
        auto w0 = random_vec(n, rng);
        auto g0 = random_vec(n, rng);
        auto v0 = random_vec(n, rng);
        check_parity(
            "sgd_momentum_step",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = w0;
                out[1] = g0;
                out[2] = v0;
                simd::sgd_momentum_step(n, 0.01f, 0.9f, 1e-4f, out[0].data(), out[1].data(),
                                        out[2].data());
            },
            3);
        const simd::AdamStep step{0.001f, 0.9f, 0.999f, 1e-8f, 1e-4f, 0.1f, 0.001999f};
        auto m0 = random_vec(n, rng, 0.0f, 1.0f);
        auto s0 = random_vec(n, rng, 0.0f, 1.0f);
        check_parity(
            "adam_step",
            [&](std::vector<std::vector<float>>& out) {
                out[0] = w0;
                out[1] = g0;
                out[2] = m0;
                out[3] = s0;
                simd::adam_step(n, step, out[0].data(), out[1].data(), out[2].data(),
                                out[3].data());
            },
            4);
    }
}

TEST(SimdParity, ColwiseAndBatchnorm) {
    util::Rng rng(47);
    struct Shape2d {
        std::size_t rows, cols;
    };
    for (const auto& s : {Shape2d{1, 1}, Shape2d{1, 17}, Shape2d{9, 1}, Shape2d{4, 8},
                          Shape2d{7, 13}, Shape2d{32, 100}}) {
        auto x = random_vec(s.rows * s.cols, rng);
        auto dy = random_vec(s.rows * s.cols, rng);
        auto mean = random_vec(s.cols, rng);
        auto inv_std = random_vec(s.cols, rng, 0.5f, 2.0f);
        auto gamma = random_vec(s.cols, rng);
        auto beta = random_vec(s.cols, rng);
        auto scale = random_vec(s.cols, rng);
        check_parity(
            "colwise_sum",
            [&](std::vector<std::vector<float>>& out) {
                out[0].assign(s.cols, 0.25f);
                simd::colwise_sum(s.rows, s.cols, x.data(), out[0].data());
            },
            1);
        check_parity(
            "colwise_sq_dev_sum",
            [&](std::vector<std::vector<float>>& out) {
                out[0].assign(s.cols, 0.0f);
                simd::colwise_sq_dev_sum(s.rows, s.cols, x.data(), mean.data(), out[0].data());
            },
            1);
        check_parity(
            "colwise_mul_sum",
            [&](std::vector<std::vector<float>>& out) {
                out[0].assign(s.cols, 0.0f);
                simd::colwise_mul_sum(s.rows, s.cols, x.data(), dy.data(), out[0].data());
            },
            1);
        check_parity(
            "bn_normalize",
            [&](std::vector<std::vector<float>>& out) {
                out[0].assign(s.rows * s.cols, 0.0f);
                out[1].assign(s.rows * s.cols, 0.0f);
                simd::bn_normalize(s.rows, s.cols, x.data(), mean.data(), inv_std.data(),
                                   gamma.data(), beta.data(), out[0].data(), out[1].data());
            },
            2);
        check_parity(
            "bn_backward_apply",
            [&](std::vector<std::vector<float>>& out) {
                out[0].assign(s.rows * s.cols, 0.0f);
                simd::bn_backward_apply(s.rows, s.cols, dy.data(), x.data(), scale.data(),
                                        mean.data(), beta.data(),
                                        static_cast<float>(s.rows), out[0].data());
            },
            1);
    }
}

// End-to-end: the im2col+GEMM conv must agree bitwise across ISAs for odd
// spatial/channel sizes (forward AND all three backward outputs).
TEST(SimdParity, ConvForwardBackward) {
    if (simd::best_isa() != simd::Isa::kAvx2) GTEST_SKIP() << "host has no AVX2";
    util::Rng rng(48);
    struct ConvCase {
        std::size_t n, c, h, w, f, kh, kw;
    };
    for (const auto& cc : {ConvCase{1, 1, 3, 3, 1, 3, 3}, ConvCase{2, 3, 7, 9, 5, 3, 3},
                           ConvCase{1, 2, 5, 5, 4, 1, 1}, ConvCase{2, 1, 6, 11, 3, 2, 5}}) {
        Tensor input = Tensor::uniform({cc.n, cc.c, cc.h, cc.w}, rng, -1.0f, 1.0f);
        Tensor kernel = Tensor::uniform({cc.f, cc.c, cc.kh, cc.kw}, rng, -1.0f, 1.0f);
        Tensor bias = Tensor::uniform({cc.f}, rng, -0.5f, 0.5f);
        Tensor gout = Tensor::uniform({cc.n, cc.f, cc.h - cc.kh + 1, cc.w - cc.kw + 1}, rng,
                                      -1.0f, 1.0f);

        simd::force_isa(simd::Isa::kScalar);
        Tensor out_s = tensor::conv2d(input, kernel, bias);
        auto grads_s = tensor::conv2d_backward(input, kernel, gout);
        simd::force_isa(simd::Isa::kAvx2);
        Tensor out_v = tensor::conv2d(input, kernel, bias);
        auto grads_v = tensor::conv2d_backward(input, kernel, gout);
        simd::reset_isa();

        auto as_vec = [](const Tensor& t) {
            return std::vector<float>(t.data(), t.data() + t.numel());
        };
        expect_bits_equal(as_vec(out_s), as_vec(out_v), "conv2d forward");
        expect_bits_equal(as_vec(grads_s.grad_input), as_vec(grads_v.grad_input),
                          "conv2d grad_input");
        expect_bits_equal(as_vec(grads_s.grad_kernel), as_vec(grads_v.grad_kernel),
                          "conv2d grad_kernel");
        expect_bits_equal(as_vec(grads_s.grad_bias), as_vec(grads_v.grad_bias),
                          "conv2d grad_bias");
    }
}

// The GEMM path must also match a plain reference triple loop exactly: the
// kernels preserve k-sequential per-element accumulation, so this is equality
// not tolerance.
TEST(SimdParity, GemmMatchesReferenceExactly) {
    util::Rng rng(49);
    const std::size_t m = 5, k = 13, n = 9;
    Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
    Tensor b = Tensor::uniform({k, n}, rng, -1.0f, 1.0f);
    Tensor c = tensor::matmul(a, b);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) acc += a(i, kk) * b(kk, j);
            EXPECT_EQ(acc, c(i, j)) << "at (" << i << ", " << j << ")";
        }
}

// Every column-tail width the GEMMs can meet: n = 1..40 covers each n mod 16
// class (the 2x8 tile, the one-vector block, the scalar tail) more than
// twice; m runs inside, at and past the 4-row tile; k from one step to past a
// vector. Each ISA must equal a plain k-sequential loop from the incoming C
// exactly, so a column path that reorders the accumulation fails even when
// it does so on both ISAs alike.
TEST(SimdParity, EveryGemmTailWidthMatchesTheSequentialReference) {
    enum class Op { kGemm, kGemmBt, kGemmAt };
    std::vector<simd::Isa> isas{simd::Isa::kScalar};
    if (simd::best_isa() == simd::Isa::kAvx2) isas.push_back(simd::Isa::kAvx2);
    util::Rng rng(50);
    for (Op op : {Op::kGemm, Op::kGemmBt, Op::kGemmAt})
        for (std::size_t m : {1, 3, 4, 5})
            for (std::size_t k : {1, 7, 33})
                for (std::size_t n = 1; n <= 40; ++n) {
                    auto a = random_vec(m * k, rng);
                    auto b = random_vec(k * n, rng);
                    const auto c0 = random_vec(m * n, rng);
                    a[0] = 0.0f;  // gemm_at's sparsity skip
                    std::vector<float> want = c0;
                    for (std::size_t i = 0; i < m; ++i)
                        for (std::size_t j = 0; j < n; ++j) {
                            float acc = c0[i * n + j];
                            for (std::size_t kk = 0; kk < k; ++kk) {
                                if (op == Op::kGemm) {
                                    acc = acc + a[i * k + kk] * b[kk * n + j];
                                } else if (op == Op::kGemmBt) {
                                    acc = acc + a[i * k + kk] * b[j * k + kk];
                                } else if (a[kk * m + i] != 0.0f) {
                                    acc = acc + a[kk * m + i] * b[kk * n + j];
                                }
                            }
                            want[i * n + j] = acc;
                        }
                    for (simd::Isa isa : isas) {
                        simd::force_isa(isa);
                        std::vector<float> got = c0;
                        if (op == Op::kGemm)
                            simd::gemm(m, k, n, a.data(), b.data(), got.data());
                        else if (op == Op::kGemmBt)
                            simd::gemm_bt(m, k, n, a.data(), b.data(), got.data());
                        else
                            simd::gemm_at(m, k, n, a.data(), b.data(), got.data());
                        simd::reset_isa();
                        SCOPED_TRACE(::testing::Message()
                                     << simd::to_string(isa) << " op " << static_cast<int>(op)
                                     << " m=" << m << " k=" << k << " n=" << n);
                        expect_bits_equal(got, want, "gemm tail");
                    }
                }
}

TEST(SimdDispatch, ForceIsaRoundTrips) {
    const simd::Isa best = simd::best_isa();
    EXPECT_EQ(simd::active_isa(), best);
    const simd::Isa previous = simd::force_isa(simd::Isa::kScalar);
    EXPECT_EQ(previous, best);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    simd::reset_isa();
    EXPECT_EQ(simd::active_isa(), best);
    EXPECT_STREQ(simd::to_string(simd::Isa::kScalar), "scalar");
    EXPECT_STREQ(simd::to_string(simd::Isa::kAvx2), "avx2");
}

}  // namespace
