/**
 * @file
 * Lane loops shared by the GVML op files. Internal to src/gvml.
 */

#ifndef CISRAM_GVML_LANES_HH
#define CISRAM_GVML_LANES_HH

#include <cstddef>
#include <cstdint>

namespace cisram::gvml {

/**
 * addSubgrpS16's lanes (gvml_reduce.cc): every lane i of w[0, n)
 * becomes the sum of w[i + m * s] (mod 2^16) over m < grp / s with
 * i + m * s < n, in two in-place passes.
 */
void subgroupSums(uint16_t *w, size_t n, size_t grp, size_t s);

} // namespace cisram::gvml

#endif // CISRAM_GVML_LANES_HH
