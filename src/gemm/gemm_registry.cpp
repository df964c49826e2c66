#include "gemm/cpu_impls.hpp"
#include "gemm/gemm_interface.hpp"
#include "gemm/gpu_impls.hpp"
#include "util/error.hpp"

namespace ao::gemm {

std::unique_ptr<IGemm> create_gemm(soc::GemmImpl impl, GemmContext& context) {
  switch (impl) {
    case soc::GemmImpl::kCpuSingle:
      return std::make_unique<CpuSingleGemm>(context);
    case soc::GemmImpl::kCpuOmp:
      return std::make_unique<CpuOmpGemm>(context);
    case soc::GemmImpl::kCpuAccelerate:
      return std::make_unique<CpuAccelerateGemm>(context);
    case soc::GemmImpl::kGpuNaive:
      return std::make_unique<GpuNaiveGemm>(context);
    case soc::GemmImpl::kGpuCutlass:
      return std::make_unique<GpuTiledGemm>(context);
    case soc::GemmImpl::kGpuMps:
      return std::make_unique<GpuMpsGemm>(context);
  }
  throw util::InvalidArgument("unknown GEMM implementation");
}

}  // namespace ao::gemm
