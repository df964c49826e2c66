#pragma once

#include "metal/kernel.hpp"

namespace ao::shaders {

/// GPU STREAM kernels, ported from the CUDA/HIP stream_cpugpu.cpp the paper
/// adapts [20, 22] into the simulator's MSL-equivalent form. All four operate
/// on FP32 arrays bound at fixed slots:
///
///   slot 0: a   slot 1: b   slot 2: c
///   slot 3: uint32 element count n
///   slot 4: float scalar (Scale/Triad only)
///
///   Copy:  c[i] = a[i]
///   Scale: b[i] = scalar * c[i]
///   Add:   c[i] = a[i] + b[i]
///   Triad: a[i] = b[i] + scalar * c[i]
///
/// Each kernel's work estimate routes to the calibrated GPU STREAM anchors
/// (Figure 1) with the STREAM byte-accounting convention (2 or 3 arrays).
metal::Kernel make_stream_copy();
metal::Kernel make_stream_scale();
metal::Kernel make_stream_add();
metal::Kernel make_stream_triad();

/// Library function name for a STREAM kernel ("stream_copy", ...).
std::string stream_kernel_name(soc::StreamKernel kernel);

}  // namespace ao::shaders
