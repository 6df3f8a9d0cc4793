/**
 * @file
 * The per-core vector register file.
 *
 * 24 computation-enabled vector registers of 32768 x 16-bit elements,
 * physically striped across 16 banks of 2048 elements (paper Fig. 4).
 * Word-level storage is the primary representation, one LaneVector
 * (a stored head plus a uniform tail) per register; the bit-slice
 * engine extracts and inserts bit planes on demand.
 */

#ifndef CISRAM_APUSIM_VR_FILE_HH
#define CISRAM_APUSIM_VR_FILE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "apusim/lane_vector.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"

namespace cisram::apu {

class VrFile
{
  public:
    VrFile(unsigned num_vrs, size_t vr_length, unsigned num_banks)
        : length_(vr_length), numBanks_(num_banks),
          bankElems_(vr_length / num_banks),
          regs(num_vrs, LaneVector(vr_length))
    {
        cisram_assert(vr_length % num_banks == 0);
    }

    unsigned numVrs() const { return static_cast<unsigned>(regs.size()); }
    size_t length() const { return length_; }
    unsigned numBanks() const { return numBanks_; }
    size_t bankElems() const { return bankElems_; }

    /**
     * Register `vr`, materialized (LaneVector::full()): the reference
     * stays valid only until the next extent-aware op writes `vr`.
     */
    std::vector<uint16_t> &
    operator[](unsigned vr)
    {
        return lanes(vr).full();
    }

    const std::vector<uint16_t> &
    operator[](unsigned vr) const
    {
        return lanes(vr).full();
    }

    /** Register `vr` as head and tail, for the extent-aware ops. */
    LaneVector &
    lanes(unsigned vr)
    {
        cisram_assert(vr < regs.size(), "VR index OOB: ", vr);
        return regs[vr];
    }

    const LaneVector &
    lanes(unsigned vr) const
    {
        cisram_assert(vr < regs.size(), "VR index OOB: ", vr);
        return regs[vr];
    }

    /** Bank that element `i` resides in. */
    unsigned
    bankOf(size_t i) const
    {
        return static_cast<unsigned>(i / bankElems_);
    }

    /** Extract bit plane `slice` of register `vr`. */
    BitVector slicePlane(unsigned vr, unsigned slice) const;

    /** Overwrite bit plane `slice` of register `vr`. */
    void setSlicePlane(unsigned vr, unsigned slice,
                       const BitVector &plane);

    // --- Word-parallel multi-plane fast paths ---------------------
    // One sweep over the register converts between the word-major
    // element storage and the plane-major bit-slice view via 16x16
    // bit-matrix transposes (64 elements -> 16 plane-word fragments
    // per four transposes), instead of one per-bit pass per slice.
    // Bit-identical to slicePlane()/setSlicePlane() per slice; the
    // equivalence is pinned by tests/test_wordparallel.cc.

    /**
     * Extract every plane selected by `slice_mask` into `out` in one
     * sweep. Unselected entries of `out` are left untouched.
     */
    void slicePlanes(unsigned vr, uint16_t slice_mask,
                     std::array<BitVector, 16> &out) const;

    /**
     * As slicePlanes, but extracts the planes of the element-wise
     * AND of two registers (plane_s(a & b) == plane_s(a) &
     * plane_s(b), so one fused sweep replaces two extractions).
     */
    void slicePlanesAnd(unsigned vr_a, unsigned vr_b,
                        uint16_t slice_mask,
                        std::array<BitVector, 16> &out) const;

    /**
     * Overwrite every plane selected by `slice_mask` from `planes`
     * (optionally complemented) in one sweep; unselected bit
     * positions of each element are preserved.
     */
    void setSlicePlanes(unsigned vr, uint16_t slice_mask,
                        const std::array<BitVector, 16> &planes,
                        bool negate = false);

  private:
    size_t length_;
    unsigned numBanks_;
    size_t bankElems_;
    std::vector<LaneVector> regs;
};

} // namespace cisram::apu

#endif // CISRAM_APUSIM_VR_FILE_HH
