#include "pipetune/tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace pipetune::tensor {
namespace {

// Central finite-difference gradient of scalar_fn at x, for gradient checks.
Tensor numeric_grad(Tensor x, const std::function<float(const Tensor&)>& scalar_fn,
                    float eps = 1e-3f) {
    Tensor grad(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i) {
        const float saved = x[i];
        x[i] = saved + eps;
        const float up = scalar_fn(x);
        x[i] = saved - eps;
        const float down = scalar_fn(x);
        x[i] = saved;
        grad[i] = (up - down) / (2 * eps);
    }
    return grad;
}

TEST(Activations, ReluForwardClampsNegatives) {
    Tensor x({4}, std::vector<float>{-1, 0, 0.5, 2});
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[1], 0);
    EXPECT_FLOAT_EQ(y[2], 0.5);
    EXPECT_FLOAT_EQ(y[3], 2);
}

TEST(Activations, ReluBackwardMasksByInput) {
    Tensor x({3}, std::vector<float>{-1, 1, 2});
    Tensor g({3}, std::vector<float>{5, 5, 5});
    Tensor gx = relu_backward(g, x);
    EXPECT_FLOAT_EQ(gx[0], 0);
    EXPECT_FLOAT_EQ(gx[1], 5);
    EXPECT_FLOAT_EQ(gx[2], 5);
}

TEST(Activations, SigmoidRangeAndSymmetry) {
    Tensor x({3}, std::vector<float>{-10, 0, 10});
    Tensor y = sigmoid(x);
    EXPECT_NEAR(y[0], 0.0f, 1e-4f);
    EXPECT_FLOAT_EQ(y[1], 0.5f);
    EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(Activations, SigmoidGradientMatchesFiniteDifference) {
    util::Rng rng(1);
    Tensor x = Tensor::uniform({6}, rng, -2.0f, 2.0f);
    Tensor ones({6}, std::vector<float>(6, 1.0f));
    Tensor analytic = sigmoid_backward(ones, sigmoid(x));
    Tensor numeric = numeric_grad(x, [](const Tensor& t) { return sigmoid(t).sum(); });
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(analytic[i], numeric[i], 2e-3f);
}

TEST(Activations, TanhGradientMatchesFiniteDifference) {
    util::Rng rng(2);
    Tensor x = Tensor::uniform({6}, rng, -1.5f, 1.5f);
    Tensor ones({6}, std::vector<float>(6, 1.0f));
    Tensor analytic = tanh_backward(ones, tanh_act(x));
    Tensor numeric = numeric_grad(x, [](const Tensor& t) { return tanh_act(t).sum(); });
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(analytic[i], numeric[i], 2e-3f);
}

TEST(Softmax, RowsSumToOne) {
    util::Rng rng(3);
    Tensor logits = Tensor::uniform({4, 7}, rng, -5.0f, 5.0f);
    Tensor probs = softmax_rows(logits);
    for (std::size_t i = 0; i < 4; ++i) {
        float row = 0;
        for (std::size_t c = 0; c < 7; ++c) {
            EXPECT_GT(probs(i, c), 0.0f);
            row += probs(i, c);
        }
        EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
}

TEST(Softmax, StableForLargeLogits) {
    Tensor logits({1, 3}, std::vector<float>{1000, 1001, 999});
    Tensor probs = softmax_rows(logits);
    EXPECT_TRUE(std::isfinite(probs(0, 0)));
    EXPECT_GT(probs(0, 1), probs(0, 0));
}

TEST(Softmax, InvarianceToShift) {
    Tensor a({1, 3}, std::vector<float>{1, 2, 3});
    Tensor b({1, 3}, std::vector<float>{11, 12, 13});
    Tensor pa = softmax_rows(a), pb = softmax_rows(b);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(pa(0, c), pb(0, c), 1e-6f);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss) {
    Tensor probs({2, 2}, std::vector<float>{1.0f, 0.0f, 0.0f, 1.0f});
    EXPECT_NEAR(cross_entropy(probs, {0, 1}), 0.0f, 1e-6f);
}

TEST(CrossEntropy, UniformPredictionIsLogC) {
    Tensor probs({1, 4}, std::vector<float>{0.25f, 0.25f, 0.25f, 0.25f});
    EXPECT_NEAR(cross_entropy(probs, {2}), std::log(4.0f), 1e-5f);
}

TEST(CrossEntropy, ValidatesLabels) {
    Tensor probs({1, 2}, std::vector<float>{0.5f, 0.5f});
    EXPECT_THROW(cross_entropy(probs, {2}), std::invalid_argument);
    EXPECT_THROW(cross_entropy(probs, {0, 1}), std::invalid_argument);
}

TEST(CrossEntropy, SoftmaxGradMatchesFiniteDifference) {
    util::Rng rng(5);
    Tensor logits = Tensor::uniform({3, 4}, rng, -2.0f, 2.0f);
    const std::vector<std::size_t> labels{1, 3, 0};
    Tensor analytic = softmax_cross_entropy_grad(softmax_rows(logits), labels);
    Tensor numeric = numeric_grad(logits, [&](const Tensor& t) {
        return cross_entropy(softmax_rows(t), labels);
    });
    for (std::size_t i = 0; i < logits.numel(); ++i)
        EXPECT_NEAR(analytic[i], numeric[i], 2e-3f);
}

TEST(Conv2d, KnownSmallConvolution) {
    // 1x1x3x3 input, 1x1x2x2 kernel of ones, zero bias -> each output = window sum.
    Tensor input({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor kernel({1, 1, 2, 2}, std::vector<float>{1, 1, 1, 1});
    Tensor bias({1});
    Tensor out = conv2d(input, kernel, bias);
    EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 12);
    EXPECT_FLOAT_EQ(out(0, 0, 0, 1), 16);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 0), 24);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 1), 28);
}

TEST(Conv2d, BiasIsAddedPerFilter) {
    Tensor input({1, 1, 2, 2}, std::vector<float>{0, 0, 0, 0});
    Tensor kernel({2, 1, 1, 1}, std::vector<float>{1, 1});
    Tensor bias({2}, std::vector<float>{3, -1});
    Tensor out = conv2d(input, kernel, bias);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 1), 3);
    EXPECT_FLOAT_EQ(out(0, 1, 0, 0), -1);
}

TEST(Conv2d, MultiChannelAccumulates) {
    Tensor input({1, 2, 2, 2}, std::vector<float>{1, 1, 1, 1, 2, 2, 2, 2});
    Tensor kernel({1, 2, 2, 2}, std::vector<float>(8, 1.0f));
    Tensor bias({1});
    Tensor out = conv2d(input, kernel, bias);
    EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 4 + 8);
}

TEST(Conv2d, ShapeValidation) {
    EXPECT_THROW(conv2d(Tensor({1, 1, 2, 2}), Tensor({1, 2, 2, 2}), Tensor({1})),
                 std::invalid_argument);
    EXPECT_THROW(conv2d(Tensor({1, 1, 2, 2}), Tensor({1, 1, 3, 3}), Tensor({1})),
                 std::invalid_argument);
    EXPECT_THROW(conv2d(Tensor({1, 1, 4, 4}), Tensor({2, 1, 2, 2}), Tensor({1})),
                 std::invalid_argument);
}

TEST(Conv2d, BackwardMatchesFiniteDifferenceOnInput) {
    util::Rng rng(7);
    Tensor input = Tensor::uniform({2, 2, 5, 5}, rng);
    Tensor kernel = Tensor::uniform({3, 2, 3, 3}, rng, -0.5f, 0.5f);
    Tensor bias = Tensor::uniform({3}, rng);
    Tensor out = conv2d(input, kernel, bias);
    Tensor grad_out(out.shape(), std::vector<float>(out.numel(), 1.0f));
    const auto grads = conv2d_backward(input, kernel, grad_out);

    Tensor numeric = numeric_grad(input, [&](const Tensor& t) {
        return conv2d(t, kernel, bias).sum();
    }, 1e-2f);
    for (std::size_t i = 0; i < input.numel(); ++i)
        EXPECT_NEAR(grads.grad_input[i], numeric[i], 5e-2f);
}

TEST(Conv2d, BackwardWithoutInputGradKeepsParameterGradsBitForBit) {
    util::Rng rng(9);
    Tensor input = Tensor::uniform({2, 1, 8, 8}, rng);
    Tensor kernel = Tensor::uniform({3, 1, 5, 5}, rng, -0.5f, 0.5f);
    Tensor grad_out = Tensor::uniform({2, 3, 4, 4}, rng);
    const auto full = conv2d_backward(input, kernel, grad_out);
    const auto params_only = conv2d_backward(input, kernel, grad_out, /*input_grad=*/false);
    EXPECT_TRUE(params_only.grad_input.empty());
    EXPECT_EQ(params_only.grad_kernel.storage(), full.grad_kernel.storage());
    EXPECT_EQ(params_only.grad_bias.storage(), full.grad_bias.storage());
}

TEST(Conv2d, BackwardMatchesFiniteDifferenceOnKernelAndBias) {
    util::Rng rng(8);
    Tensor input = Tensor::uniform({1, 1, 4, 4}, rng);
    Tensor kernel = Tensor::uniform({2, 1, 2, 2}, rng, -0.5f, 0.5f);
    Tensor bias = Tensor::uniform({2}, rng);
    Tensor out = conv2d(input, kernel, bias);
    Tensor grad_out(out.shape(), std::vector<float>(out.numel(), 1.0f));
    const auto grads = conv2d_backward(input, kernel, grad_out);

    Tensor numeric_k = numeric_grad(kernel, [&](const Tensor& t) {
        return conv2d(input, t, bias).sum();
    }, 1e-2f);
    for (std::size_t i = 0; i < kernel.numel(); ++i)
        EXPECT_NEAR(grads.grad_kernel[i], numeric_k[i], 5e-2f);

    Tensor numeric_b = numeric_grad(bias, [&](const Tensor& t) {
        return conv2d(input, kernel, t).sum();
    }, 1e-2f);
    for (std::size_t i = 0; i < bias.numel(); ++i)
        EXPECT_NEAR(grads.grad_bias[i], numeric_b[i], 5e-2f);
}

TEST(MaxPool, ForwardPicksWindowMax) {
    Tensor input({1, 1, 4, 4}, std::vector<float>{1, 2, 3, 4,
                                                  5, 6, 7, 8,
                                                  9, 10, 11, 12,
                                                  13, 14, 15, 16});
    Tensor out = maxpool2d(input, 2);
    EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 6);
    EXPECT_FLOAT_EQ(out(0, 0, 0, 1), 8);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 0), 14);
    EXPECT_FLOAT_EQ(out(0, 0, 1, 1), 16);
}

TEST(MaxPool, TruncatesPartialWindows) {
    Tensor input({1, 1, 5, 5}, std::vector<float>(25, 1.0f));
    Tensor out = maxpool2d(input, 2);
    EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
}

TEST(MaxPool, BackwardRoutesGradientToArgmax) {
    Tensor input({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 2});
    Tensor grad_out({1, 1, 1, 1}, std::vector<float>{4});
    Tensor grad_in = maxpool2d_backward(input, grad_out, 2);
    EXPECT_FLOAT_EQ(grad_in(0, 0, 0, 1), 4);
    EXPECT_FLOAT_EQ(grad_in(0, 0, 0, 0), 0);
    EXPECT_FLOAT_EQ(grad_in.sum(), 4);
}

TEST(MaxPool, ValidatesWindow) {
    EXPECT_THROW(maxpool2d(Tensor({1, 1, 2, 2}), 0), std::invalid_argument);
    EXPECT_THROW(maxpool2d(Tensor({1, 1, 2, 2}), 3), std::invalid_argument);
}

TEST(GlobalMaxPoolH, ReducesTimeDimension) {
    Tensor input({1, 2, 3, 1}, std::vector<float>{1, 5, 3, 7, 2, 4});
    Tensor out = global_maxpool_h(input);
    EXPECT_EQ(out.shape(), (Shape{1, 2, 1, 1}));
    EXPECT_FLOAT_EQ(out(0, 0, 0, 0), 5);
    EXPECT_FLOAT_EQ(out(0, 1, 0, 0), 7);
}

TEST(GlobalMaxPoolH, BackwardRoutesToMaxRow) {
    Tensor input({1, 1, 3, 2}, std::vector<float>{1, 9, 8, 2, 3, 4});
    Tensor grad_out({1, 1, 1, 2}, std::vector<float>{10, 20});
    Tensor grad_in = global_maxpool_h_backward(input, grad_out);
    EXPECT_FLOAT_EQ(grad_in(0, 0, 1, 0), 10);  // col 0 max at row 1 (8)
    EXPECT_FLOAT_EQ(grad_in(0, 0, 0, 1), 20);  // col 1 max at row 0 (9)
    EXPECT_FLOAT_EQ(grad_in.sum(), 30);
}

}  // namespace
}  // namespace pipetune::tensor
