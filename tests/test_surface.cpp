/**
 * @file
 * Structural tests for the rotated surface code lattice: stabilizer
 * counts, incidence invariants, clique neighborhoods, boundary
 * classification, syndromes, and logical-operator validity (including
 * a GF(2) rank check of independence from the stabilizer group).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dense_syndrome.hpp"
#include "surface/frame.hpp"
#include "surface/lattice.hpp"

namespace btwc {
namespace {

class SurfaceCodeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(SurfaceCodeSweep, CheckCounts)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    EXPECT_EQ(code.num_data(), d * d);
    EXPECT_EQ(code.num_checks(CheckType::X), (d * d - 1) / 2);
    EXPECT_EQ(code.num_checks(CheckType::Z), (d * d - 1) / 2);
}

TEST_P(SurfaceCodeSweep, CheckWeightsAreTwoOrFour)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        int weight2 = 0;
        for (const Check &chk : code.checks(t)) {
            ASSERT_TRUE(chk.data.size() == 2 || chk.data.size() == 4);
            weight2 += chk.data.size() == 2 ? 1 : 0;
        }
        // Each of a type's two boundaries hosts (d-1)/2 weight-2 checks.
        EXPECT_EQ(weight2, GetParam() - 1);
    }
}

TEST_P(SurfaceCodeSweep, EveryDataQubitTouchesOneOrTwoChecksPerType)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        int boundary_edges = 0;
        for (int q = 0; q < code.num_data(); ++q) {
            const size_t owners = code.checks_of_data(t, q).size();
            ASSERT_TRUE(owners == 1 || owners == 2);
            boundary_edges += owners == 1 ? 1 : 0;
        }
        // Incidence counting: 2d boundary half-edges per type.
        EXPECT_EQ(boundary_edges, 2 * d);
    }
}

TEST_P(SurfaceCodeSweep, CliqueNeighborsAreSymmetric)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int c = 0; c < code.num_checks(t); ++c) {
            for (const CliqueNeighbor &nb : code.clique_neighbors(t, c)) {
                bool found = false;
                for (const CliqueNeighbor &back :
                     code.clique_neighbors(t, nb.check)) {
                    if (back.check == c &&
                        back.shared_data == nb.shared_data) {
                        found = true;
                    }
                }
                EXPECT_TRUE(found);
            }
        }
    }
}

TEST_P(SurfaceCodeSweep, CliqueNeighborCountsWithinBounds)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int c = 0; c < code.num_checks(t); ++c) {
            const size_t nbrs = code.clique_neighbors(t, c).size();
            const size_t bnd = code.boundary_data(t, c).size();
            EXPECT_GE(nbrs, 1u);
            EXPECT_LE(nbrs, 4u);
            EXPECT_LE(bnd, 2u);
            EXPECT_EQ(nbrs + bnd, code.check(t, c).data.size());
        }
    }
}

TEST_P(SurfaceCodeSweep, PaperSpecialCliquesExist)
{
    // The 1+1 clique (one neighbor, one boundary edge) and the 1+2
    // clique (two neighbors, two boundary edges) of Fig. 5 must both
    // be present on every lattice.
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        bool has_1p1 = false;
        bool has_1p2 = false;
        for (int c = 0; c < code.num_checks(t); ++c) {
            const size_t nbrs = code.clique_neighbors(t, c).size();
            const size_t bnd = code.boundary_data(t, c).size();
            has_1p1 |= (nbrs == 1 && bnd == 1);
            has_1p2 |= (nbrs == 2 && bnd == 2);
        }
        EXPECT_TRUE(has_1p1);
        EXPECT_TRUE(has_1p2);
    }
}

TEST_P(SurfaceCodeSweep, SingleErrorSyndromeMatchesIncidence)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        const CheckType det = detector_of_error(err);
        for (int q = 0; q < code.num_data(); ++q) {
            std::vector<uint8_t> error(code.num_data(), 0);
            error[q] = 1;
            std::vector<uint8_t> syndrome;
            dense_syndrome(code, det, error, syndrome);
            std::set<int> fired;
            for (int c = 0; c < code.num_checks(det); ++c) {
                if (syndrome[c]) {
                    fired.insert(c);
                }
            }
            const auto &owners = code.checks_of_data(det, q);
            EXPECT_EQ(fired.size(), owners.size());
            for (const int c : owners) {
                EXPECT_TRUE(fired.count(c));
            }
        }
    }
}

TEST_P(SurfaceCodeSweep, LogicalOperatorsHaveTrivialSyndrome)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType err : {CheckType::X, CheckType::Z}) {
        std::vector<uint8_t> error(code.num_data(), 0);
        for (const int q : code.logical_support(err)) {
            error[q] ^= 1;
        }
        std::vector<uint8_t> syndrome;
        dense_syndrome(code, detector_of_error(err), error, syndrome);
        for (const uint8_t s : syndrome) {
            EXPECT_EQ(s, 0);
        }
    }
}

TEST_P(SurfaceCodeSweep, LogicalsAnticommute)
{
    const RotatedSurfaceCode code(GetParam());
    std::set<int> x_support(code.logical_support(CheckType::X).begin(),
                            code.logical_support(CheckType::X).end());
    int overlap = 0;
    for (const int q : code.logical_support(CheckType::Z)) {
        overlap += x_support.count(q) ? 1 : 0;
    }
    EXPECT_EQ(overlap % 2, 1);
}

TEST_P(SurfaceCodeSweep, LogicalWeightIsDistance)
{
    const int d = GetParam();
    const RotatedSurfaceCode code(d);
    EXPECT_EQ(code.logical_support(CheckType::X).size(),
              static_cast<size_t>(d));
    EXPECT_EQ(code.logical_support(CheckType::Z).size(),
              static_cast<size_t>(d));
}

/** GF(2) rank of a set of bit rows. */
int
gf2_rank(std::vector<std::vector<uint8_t>> rows)
{
    if (rows.empty()) {
        return 0;
    }
    const size_t cols = rows[0].size();
    int rank = 0;
    size_t pivot_col = 0;
    for (size_t r = 0; r < rows.size() && pivot_col < cols; ++pivot_col) {
        size_t pivot = r;
        while (pivot < rows.size() && !rows[pivot][pivot_col]) {
            ++pivot;
        }
        if (pivot == rows.size()) {
            continue;
        }
        std::swap(rows[r], rows[pivot]);
        for (size_t other = 0; other < rows.size(); ++other) {
            if (other != r && rows[other][pivot_col]) {
                for (size_t c = 0; c < cols; ++c) {
                    rows[other][c] ^= rows[r][c];
                }
            }
        }
        ++r;
        rank = static_cast<int>(r);
    }
    return rank;
}

TEST_P(SurfaceCodeSweep, LogicalIndependentOfStabilizers)
{
    // X_L must not be a product of X stabilizers (and symmetrically
    // for Z): appending the logical row to the stabilizer matrix must
    // increase its GF(2) rank.
    const int d = GetParam();
    if (d > 9) {
        GTEST_SKIP() << "rank check kept to small lattices for speed";
    }
    const RotatedSurfaceCode code(d);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        std::vector<std::vector<uint8_t>> rows;
        for (const Check &chk : code.checks(t)) {
            std::vector<uint8_t> row(code.num_data(), 0);
            for (const int q : chk.data) {
                row[q] = 1;
            }
            rows.push_back(std::move(row));
        }
        const int base_rank = gf2_rank(rows);
        std::vector<uint8_t> logical_row(code.num_data(), 0);
        for (const int q : code.logical_support(t)) {
            logical_row[q] = 1;
        }
        rows.push_back(std::move(logical_row));
        EXPECT_EQ(gf2_rank(rows), base_rank + 1);
    }
}

TEST_P(SurfaceCodeSweep, EdgeOfDataConsistentWithIncidence)
{
    const RotatedSurfaceCode code(GetParam());
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (int q = 0; q < code.num_data(); ++q) {
            const auto [a, b] = code.edge_of_data(t, q);
            const auto &owners = code.checks_of_data(t, q);
            EXPECT_EQ(a, owners[0]);
            if (owners.size() == 2) {
                EXPECT_EQ(b, owners[1]);
            } else {
                EXPECT_EQ(b, -1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SurfaceCodeSweep,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 21));

TEST(SurfaceCode, CheckAtRoundTripsPlaquetteCoordinates)
{
    const RotatedSurfaceCode code(7);
    for (const CheckType t : {CheckType::X, CheckType::Z}) {
        for (const Check &chk : code.checks(t)) {
            EXPECT_EQ(code.check_at(t, chk.pr, chk.pc), chk.id);
            // The opposite type never owns the same plaquette.
            const CheckType other =
                t == CheckType::X ? CheckType::Z : CheckType::X;
            EXPECT_EQ(code.check_at(other, chk.pr, chk.pc), -1);
        }
    }
    EXPECT_EQ(code.check_at(CheckType::X, -1, -1), -1);  // corner
    EXPECT_EQ(code.check_at(CheckType::X, 99, 0), -1);   // out of range
    EXPECT_EQ(code.check_at(CheckType::Z, -2, 0), -1);
}

TEST(SurfaceCode, DataIdCoordinateRoundTrip)
{
    const RotatedSurfaceCode code(9);
    for (int r = 0; r < 9; ++r) {
        for (int c = 0; c < 9; ++c) {
            const int id = code.data_id(r, c);
            EXPECT_EQ(code.data_row(id), r);
            EXPECT_EQ(code.data_col(id), c);
        }
    }
}

TEST(ErrorFrame, InjectionRateMatchesProbability)
{
    const RotatedSurfaceCode code(9);
    ErrorFrame frame(code, CheckType::X);
    Rng rng(5);
    const double p = 0.05;
    uint64_t flips = 0;
    const int cycles = 2000;
    for (int i = 0; i < cycles; ++i) {
        frame.reset();
        frame.inject(p, rng);
        flips += static_cast<uint64_t>(frame.weight());
    }
    const double expected = p * code.num_data() * cycles;
    EXPECT_NEAR(static_cast<double>(flips), expected,
                5.0 * std::sqrt(expected));
}

TEST(ErrorFrame, MeasurementFlipsAreTransient)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    Rng rng(6);
    std::vector<uint8_t> noisy;
    std::vector<uint8_t> clean;
    frame.measure(0.5, rng, noisy);
    frame.measure_perfect(clean);
    for (const uint8_t s : clean) {
        EXPECT_EQ(s, 0);  // measurement noise never touches the state
    }
    EXPECT_TRUE(frame.syndrome_clear());
}

TEST(ErrorFrame, ApplyMaskTogglesErrors)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    frame.flip(7);
    std::vector<uint8_t> mask(code.num_data(), 0);
    mask[7] = 1;
    frame.apply_mask(mask);
    EXPECT_EQ(frame.weight(), 0);
    EXPECT_TRUE(frame.syndrome_clear());
}

TEST(ErrorFrame, LogicalFlipDetected)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    for (const int q : code.logical_support(CheckType::X)) {
        frame.flip(q);
    }
    EXPECT_TRUE(frame.syndrome_clear());
    EXPECT_TRUE(frame.logical_flipped());
}

TEST(ErrorFrame, StabilizerIsNotLogical)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    // Applying one X stabilizer's support as an error pattern must be
    // invisible: trivial syndrome and no logical flip.
    const Check &chk = code.check(CheckType::X, 3);
    for (const int q : chk.data) {
        frame.flip(q);
    }
    EXPECT_TRUE(frame.syndrome_clear());
    EXPECT_FALSE(frame.logical_flipped());
}

TEST(ErrorFrame, MismatchedMaskIsRejected)
{
    const RotatedSurfaceCode code(5);
    ErrorFrame frame(code, CheckType::X);
    for (const int width : {code.num_data() - 1, code.num_data() + 1}) {
        const std::vector<uint8_t> mask(static_cast<size_t>(width), 1);
        EXPECT_THROW(frame.apply_mask(mask), CheckFailure) << width;
        PackedBits packed;
        packed.from_bytes(mask);
        EXPECT_THROW(frame.apply_packed(packed), CheckFailure) << width;
    }
    // A rejected mask leaves the frame untouched.
    EXPECT_EQ(frame.weight(), 0);
    EXPECT_TRUE(frame.syndrome_clear());
}

/**
 * The extraction a frame used before it kept its syndrome current: an
 * incidence walk over every set error bit, then the geometric
 * measurement-flip walk. Kept as the RNG-stream reference.
 */
void
sparse_extraction(const ErrorFrame &frame, double p_meas, Rng &rng,
                  PackedSyndrome &out)
{
    const RotatedSurfaceCode &code = frame.code();
    out.reset(code.num_checks(frame.detector()));
    frame.error_packed().for_each_set([&](int data) {
        for (const int check : code.checks_of_data(frame.detector(), data)) {
            out.flip(check);
        }
    });
    const uint64_t n = static_cast<uint64_t>(out.size());
    uint64_t i = rng.geometric(p_meas);
    while (i < n) {
        out.flip(static_cast<int>(i));
        const uint64_t gap = rng.geometric(p_meas);
        if (gap >= n - i) {
            break;
        }
        i += gap + 1;
    }
}

/** Every reader of `frame` agrees with the dense sweep of its error. */
void
expect_matches_oracle(const ErrorFrame &frame, const char *op)
{
    const RotatedSurfaceCode &code = frame.code();
    std::vector<uint8_t> error;
    frame.error_packed().to_bytes(error);
    std::vector<uint8_t> oracle;
    dense_syndrome(code, frame.detector(), error, oracle);
    const bool oracle_clear =
        std::all_of(oracle.begin(), oracle.end(),
                    [](uint8_t bit) { return bit == 0; });

    std::vector<uint8_t> bytes;
    frame.syndrome().to_bytes(bytes);
    EXPECT_EQ(bytes, oracle) << op;
    frame.measure_perfect(bytes);
    EXPECT_EQ(bytes, oracle) << op;
    Rng unused(0);
    PackedSyndrome packed;
    frame.measure_packed(0.0, unused, packed);
    packed.to_bytes(bytes);
    EXPECT_EQ(bytes, oracle) << op;
    EXPECT_EQ(frame.syndrome_clear(), oracle_clear) << op;
    EXPECT_EQ(frame.logical_flipped(),
              dense_logical_flipped(code, frame.error_type(), error))
        << op;
    EXPECT_NO_THROW(frame.audit()) << op;
}

TEST(ErrorFrame, MaintainedStateMatchesDenseOracle)
{
    for (const int d : {3, 5, 9, 21}) {
        const RotatedSurfaceCode code(d);
        const int n = code.num_data();
        for (const CheckType err : {CheckType::X, CheckType::Z}) {
            SCOPED_TRACE(testing::Message()
                         << "d=" << d << " err=" << check_type_name(err));
            Rng rng(static_cast<uint64_t>(1000 + d));
            ErrorFrame frame(code, err);
            for (int step = 0; step < 2000; ++step) {
                switch (rng.next_below(9)) {
                  case 0:
                    frame.inject(1e-3, rng);
                    expect_matches_oracle(frame, "inject 1e-3");
                    break;
                  case 1:
                    frame.inject(5e-2, rng);
                    expect_matches_oracle(frame, "inject 5e-2");
                    break;
                  case 2:
                    frame.flip(static_cast<int>(rng.next_below(n)));
                    expect_matches_oracle(frame, "flip");
                    break;
                  case 3: {
                    std::vector<int> corrections;
                    const uint64_t count = rng.next_below(6);
                    for (uint64_t k = 0; k < count; ++k) {
                        corrections.push_back(
                            static_cast<int>(rng.next_below(n)));
                    }
                    frame.apply(corrections);
                    expect_matches_oracle(frame, "apply");
                    break;
                  }
                  case 4: {
                    std::vector<uint8_t> mask(static_cast<size_t>(n));
                    for (auto &bit : mask) {
                        bit = rng.bernoulli(0.05) ? 1 : 0;
                    }
                    frame.apply_mask(mask);
                    expect_matches_oracle(frame, "apply_mask");
                    break;
                  }
                  case 5: {
                    PackedBits mask(n);
                    for (int q = 0; q < n; ++q) {
                        if (rng.bernoulli(0.05)) {
                            mask.set(q);
                        }
                    }
                    frame.apply_packed(mask);
                    expect_matches_oracle(frame, "apply_packed");
                    break;
                  }
                  case 6:
                    // Rare, so the frame usually carries an aged error.
                    if (rng.bernoulli(0.1)) {
                        frame.reset();
                        expect_matches_oracle(frame, "reset");
                    }
                    break;
                  default: {
                    ErrorFrame copy(frame);
                    const PackedBits before = frame.error_packed();
                    copy.flip(static_cast<int>(rng.next_below(n)));
                    copy.inject(5e-2, rng);
                    expect_matches_oracle(copy, "copy, diverged");
                    EXPECT_EQ(frame.error_packed(), before);
                    expect_matches_oracle(frame, "copied-from");
                    break;
                  }
                }
                if (HasFailure()) {
                    return;
                }
            }

            // A frame aged like a memory stream's (never corrected):
            // extraction must still draw the sparse reference's RNG
            // stream and produce its syndrome.
            ErrorFrame aged(code, err);
            for (int round = 0; round < 2000; ++round) {
                aged.inject(1e-3, rng);
            }
            if (d == 21) {
                ASSERT_GT(aged.weight(), 100);
            }
            Rng meas_rng(2000 + d);
            Rng reference_rng(2000 + d);
            PackedSyndrome out;
            PackedSyndrome reference;
            for (int round = 0; round < 100; ++round) {
                aged.measure_packed(1e-3, meas_rng, out);
                sparse_extraction(aged, 1e-3, reference_rng, reference);
                ASSERT_EQ(out, reference) << "aged round " << round;
                ASSERT_EQ(meas_rng.next_u64(), reference_rng.next_u64())
                    << "aged round " << round;
                aged.inject(1e-3, rng);
            }
        }
    }
}

} // namespace
} // namespace btwc
