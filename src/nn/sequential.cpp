#include "pipetune/nn/sequential.hpp"

#include <iterator>
#include <stdexcept>

namespace pipetune::nn {

Sequential::Sequential(const Sequential& other) {
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
    if (this == &other) return *this;
    layers_.clear();
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
    return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
    if (!layer) throw std::invalid_argument("Sequential::add: null layer");
    layers_.push_back(std::move(layer));
    return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
    Tensor x = input;
    for (auto& layer : layers_) x = layer->forward(x, training);
    return x;
}

void Sequential::backward(const Tensor& grad_logits) {
    if (layers_.empty()) return;
    Tensor g = grad_logits;
    for (auto it = layers_.rbegin(); std::next(it) != layers_.rend(); ++it) g = (*it)->backward(g);
    layers_.front()->backward_params_only(g);
}

std::vector<Tensor*> Sequential::params() {
    std::vector<Tensor*> out;
    for (auto& layer : layers_)
        for (Tensor* p : layer->params()) out.push_back(p);
    return out;
}

std::vector<Tensor*> Sequential::grads() {
    std::vector<Tensor*> out;
    for (auto& layer : layers_)
        for (Tensor* g : layer->grads()) out.push_back(g);
    return out;
}

void Sequential::zero_grad() {
    for (auto& layer : layers_) layer->zero_grad();
}

std::size_t Sequential::param_count() {
    std::size_t n = 0;
    for (auto& layer : layers_) n += layer->param_count();
    return n;
}

void Sequential::copy_params_from(const Sequential& source) {
    auto& mutable_source = const_cast<Sequential&>(source);
    auto dst = params();
    auto src = mutable_source.params();
    if (dst.size() != src.size())
        throw std::invalid_argument("Sequential::copy_params_from: structure mismatch");
    for (std::size_t i = 0; i < dst.size(); ++i) {
        if (dst[i]->shape() != src[i]->shape())
            throw std::invalid_argument("Sequential::copy_params_from: shape mismatch");
        dst[i]->storage() = src[i]->storage();
    }
}

}  // namespace pipetune::nn
