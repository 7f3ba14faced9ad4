// Off-clock check of one R factor against its input.
#pragma once

#include <cstdint>
#include <string>

#include "la/matrix.hpp"

namespace perfbench {

/// Checks that `r` is a valid R factor of `a`: cols x cols, finite, upper
/// triangular (la::lower_triangle_residual), column norms preserved
/// (la::column_norm_drift) and, for a seeded probe x, | ||Rx|| - ||Ax|| | /
/// ||Ax|| small — orthogonal Q keeps ||QRx|| = ||Rx||, so no Q is needed.
/// Every test uses la::verify_tolerance at max(rows, cols). Returns an empty
/// string when R passes, otherwise which test failed and by how much.
std::string check_r(const tqr::la::Matrix<double>& a,
                    const tqr::la::Matrix<double>& r,
                    std::uint64_t probe_seed);

}  // namespace perfbench
