/**
 * @file
 * Umbrella header: the public API of the cisram library.
 *
 * Downstream users can include this single header and link the
 * aggregate `cisram` CMake target. Individual module headers remain
 * available for finer-grained inclusion.
 */

#ifndef CISRAM_CISRAM_HH
#define CISRAM_CISRAM_HH

// Device simulator and programming model.
#include "apusim/apu.hh"
#include "apusim/multicore.hh"
#include "gdl/gdl.hh"
#include "gvml/gvml.hh"
#include "gvml/microcode.hh"

// Off-chip memory and energy.
#include "dramsim/dram_sim.hh"
#include "energy/energy.hh"

// Analytical framework.
#include "model/cost_table.hh"
#include "model/dse.hh"
#include "model/latency_estimator.hh"
#include "model/roofline.hh"
#include "model/sg_model.hh"

// Optimization layer.
#include "core/bmm_model.hh"
#include "core/layout.hh"
#include "core/planner.hh"

// Workloads and baselines.
#include "baseline/faisslite.hh"
#include "baseline/phoenix_cpu.hh"
#include "baseline/timing_models.hh"
#include "baseline/workloads.hh"
#include "kernels/bmm.hh"
#include "kernels/phoenix_apu.hh"
#include "kernels/phoenix_model.hh"
#include "kernels/rag.hh"
#include "kernels/rag_model.hh"
#include "kernels/sort.hh"

#endif // CISRAM_CISRAM_HH
