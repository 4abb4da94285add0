#include "surface/frame.hpp"

#include "common/check.hpp"

namespace btwc {

namespace {

/**
 * Call hit(i) for each i in [0, n) independently with probability p,
 * in ascending order, by geometric gap skipping: O(n p + 1) draws.
 * Injection and both measurement forms share it, so they consume the
 * RNG stream identically.
 */
template <typename Hit>
void
for_each_bernoulli(uint64_t n, double p, Rng &rng, Hit &&hit)
{
    if (p <= 0.0) {
        return;
    }
    uint64_t i = rng.geometric(p);
    while (i < n) {
        hit(static_cast<int>(i));
        const uint64_t gap = rng.geometric(p);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

} // namespace

ErrorFrame::ErrorFrame(const RotatedSurfaceCode &code, CheckType error_type)
    : code_(code), error_type_(error_type),
      detector_(detector_of_error(error_type)), packed_(code.num_data()),
      syndrome_(code.num_checks(detector_)), logical_mask_(code.num_data())
{
    // The residual fails the logical qubit when it anticommutes with
    // the opposite type's logical operator, i.e. on odd overlap with
    // that operator's support.
    for (const int data : code.logical_support(detector_)) {
        logical_mask_.set(data);
    }
}

void
ErrorFrame::toggle(int data)
{
    packed_.flip(data);
    for (const int check : code_.checks_of_data(detector_, data)) {
        syndrome_.flip(check);
    }
    logical_parity_ ^= logical_mask_.test(data);
}

void
ErrorFrame::reset()
{
    packed_.clear();
    syndrome_.clear();
    logical_parity_ = false;
}

void
ErrorFrame::flip(int data)
{
    BTWC_DCHECK(data >= 0 && data < packed_.size());
    toggle(data);
}

void
ErrorFrame::inject(double p, Rng &rng)
{
    for_each_bernoulli(static_cast<uint64_t>(packed_.size()), p, rng,
                       [this](int data) { toggle(data); });
}

void
ErrorFrame::apply(const std::vector<int> &corrections)
{
    for (const int data : corrections) {
        BTWC_DCHECK(data >= 0 && data < packed_.size());
        toggle(data);
    }
}

void
ErrorFrame::apply_mask(const std::vector<uint8_t> &mask)
{
    BTWC_CHECK_MSG(mask.size() == static_cast<size_t>(packed_.size()),
                   "a correction mask has one entry per data qubit");
    for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] & 1) {
            toggle(static_cast<int>(i));
        }
    }
}

void
ErrorFrame::apply_packed(const PackedBits &mask)
{
    BTWC_CHECK_MSG(mask.size() == packed_.size(),
                   "a packed correction mask has one bit per data qubit");
    mask.for_each_set([this](int data) { toggle(data); });
}

void
ErrorFrame::measure(double p_meas, Rng &rng, std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
    for_each_bernoulli(out.size(), p_meas, rng,
                       [&out](int check) { out[check] ^= 1; });
}

void
ErrorFrame::measure_packed(double p_meas, Rng &rng,
                           PackedSyndrome &out) const
{
    // Same width, so the copy reuses out's words: no allocation.
    out = syndrome_;
    for_each_bernoulli(static_cast<uint64_t>(out.size()), p_meas, rng,
                       [&out](int check) { out.flip(check); });
}

void
ErrorFrame::measure_perfect(std::vector<uint8_t> &out) const
{
    syndrome_.to_bytes(out);
}

int
ErrorFrame::weight() const
{
    return packed_.popcount();
}

void
ErrorFrame::audit() const
{
    packed_.audit();
    syndrome_.audit();
    BTWC_CHECK_MSG(packed_.size() == code_.num_data() &&
                       syndrome_.size() == code_.num_checks(detector_),
                   "ErrorFrame widths match its code");
    PackedSyndrome derived(code_.num_checks(detector_));
    packed_.for_each_set([this, &derived](int data) {
        for (const int check : code_.checks_of_data(detector_, data)) {
            derived.flip(check);
        }
    });
    BTWC_CHECK_MSG(derived == syndrome_,
                   "ErrorFrame's maintained syndrome equals the "
                   "syndrome of its error");
    bool parity = false;
    for (const int data : code_.logical_support(detector_)) {
        parity ^= packed_.test(data);
    }
    BTWC_CHECK_MSG(parity == logical_parity_,
                   "ErrorFrame's maintained logical parity equals the "
                   "error's parity over the dual logical support");
}

} // namespace btwc
