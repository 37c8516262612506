#include "dataflow/descriptor.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace omega {

const char* to_string(InterPhase ip) {
  switch (ip) {
    case InterPhase::kSequential: return "Seq";
    case InterPhase::kSPGeneric: return "SPg";
    case InterPhase::kSPOptimized: return "SP";
    case InterPhase::kParallelPipeline: return "PP";
  }
  return "?";
}

const char* to_string(Granularity g) {
  switch (g) {
    case Granularity::kElement: return "element";
    case Granularity::kRow: return "row";
    case Granularity::kColumn: return "column";
    case Granularity::kNone: return "none";
  }
  return "?";
}

namespace {

enum class Unit { kElement, kRow, kColumn };

struct RoleAnalysis {
  bool feasible = false;
  Unit unit = Unit::kElement;
  TraversalMajor major = TraversalMajor::kRowMajor;
  std::string reason;
};

/// Shared analysis for both roles: look at where the "third" loop sits.
/// third innermost  -> element-wise hand-off in (outermost-dim)-major order
/// third in middle  -> whole row/column completes (inner dim spans it)
/// third outermost  -> the full intermediate is revisited; not pipelineable
RoleAnalysis analyze_role(const HandoffRole& role, const char* role_name) {
  RoleAnalysis out;
  const LoopOrder& order = role.order;
  const std::size_t third_depth = order.depth_of(role.third);
  const Dim outer = order.at(0);
  if (third_depth == 2) {
    out.feasible = true;
    out.unit = Unit::kElement;
    out.major = (outer == role.row) ? TraversalMajor::kRowMajor
                                    : TraversalMajor::kColumnMajor;
    return out;
  }
  if (third_depth == 1) {
    out.feasible = true;
    if (outer == role.row) {
      out.unit = Unit::kRow;
      out.major = TraversalMajor::kRowMajor;
    } else {
      out.unit = Unit::kColumn;
      out.major = TraversalMajor::kColumnMajor;
    }
    return out;
  }
  out.feasible = false;
  out.reason = std::string(role_name) + " loop order " + order.letters() +
               " places " + dim_letter(role.third) +
               " outermost: every intermediate element is revisited across "
               "the whole nest, so no chunk ever becomes final/consumable";
  return out;
}

}  // namespace

PipelineAnalysis analyze_handoff(const HandoffRole& producer,
                                 const HandoffRole& consumer) {
  PipelineAnalysis out;
  const RoleAnalysis prod = analyze_role(producer, "producer");
  if (!prod.feasible) {
    out.reason = prod.reason;
    return out;
  }
  const RoleAnalysis cons = analyze_role(consumer, "consumer");
  if (!cons.feasible) {
    out.reason = cons.reason;
    return out;
  }
  if (prod.major != cons.major) {
    out.reason = "producer traverses the intermediate " +
                 std::string(prod.major == TraversalMajor::kRowMajor
                                 ? "row-major"
                                 : "column-major") +
                 " but consumer needs it " +
                 (cons.major == TraversalMajor::kRowMajor ? "row-major"
                                                          : "column-major") +
                 "; chunks would be consumed out of production order";
    return out;
  }

  out.feasible = true;
  out.major = prod.major;
  if (prod.unit == Unit::kElement && cons.unit == Unit::kElement) {
    out.granularity = Granularity::kElement;
  } else if (out.major == TraversalMajor::kRowMajor) {
    out.granularity = Granularity::kRow;
  } else {
    out.granularity = Granularity::kColumn;
  }
  return out;
}

Granularity DataflowDescriptor::granularity() const {
  if (inter == InterPhase::kSequential || inter == InterPhase::kSPOptimized) {
    return Granularity::kNone;
  }
  const auto analysis = analyze_pipeline(agg.order, cmb.order, phase_order);
  return analysis.feasible ? analysis.granularity : Granularity::kNone;
}

std::size_t DataflowDescriptor::t_row_max() const {
  // Intermediate rows: produced over V; consumed over V (AC) or N (CA).
  if (phase_order == PhaseOrder::kAC) {
    return std::max(agg.tiles.v, cmb.tiles.v);
  }
  return std::max(cmb.tiles.v, agg.tiles.n);
}

std::size_t DataflowDescriptor::t_col_max() const {
  // Intermediate columns: F for AC (both phases), G/F_agg for CA.
  if (phase_order == PhaseOrder::kAC) {
    return std::max(agg.tiles.f, cmb.tiles.f);
  }
  return std::max(cmb.tiles.g, agg.tiles.f);
}

std::size_t DataflowDescriptor::pipeline_elements(std::size_t rows,
                                                  std::size_t cols) const {
  const std::size_t tr = std::min(t_row_max(), rows);
  const std::size_t tc = std::min(t_col_max(), cols);
  switch (granularity()) {
    case Granularity::kElement: return tr * tc;
    case Granularity::kRow: return tr * cols;
    case Granularity::kColumn: return rows * tc;
    case Granularity::kNone: return 0;
  }
  return 0;
}

std::size_t DataflowDescriptor::intermediate_buffer_elements(
    std::size_t rows, std::size_t cols) const {
  switch (inter) {
    case InterPhase::kSequential: return rows * cols;
    case InterPhase::kSPGeneric: return pipeline_elements(rows, cols);
    case InterPhase::kSPOptimized: return 0;
    case InterPhase::kParallelPipeline:
      return 2 * pipeline_elements(rows, cols);
  }
  return 0;
}

std::string DataflowDescriptor::to_string() const {
  std::ostringstream os;
  os << omega::to_string(inter) << "_" << omega::to_string(phase_order) << "("
     << agg.to_string() << ", " << cmb.to_string() << ")";
  return os.str();
}

DataflowDescriptor DataflowDescriptor::parse(const std::string& text) {
  const auto open = text.find('(');
  const auto comma = text.find(',');
  const auto close = text.find(')');
  OMEGA_CHECK(open != std::string::npos && comma != std::string::npos &&
                  close != std::string::npos && open < comma && comma < close,
              "dataflow must look like PP_AC(VtFsNt, VsGsFt)");
  const std::string trailing = trim(text.substr(close + 1));
  if (!trailing.empty()) {
    throw InvalidDataflowError("unexpected text after the dataflow's ')': " +
                               trailing);
  }
  const std::string head = trim(text.substr(0, open));
  const auto underscore = head.find('_');
  OMEGA_CHECK(underscore != std::string::npos, "missing _AC/_CA phase order");
  const std::string inter_s = head.substr(0, underscore);
  const std::string order_s = head.substr(underscore + 1);

  DataflowDescriptor df;
  if (inter_s == "Seq") df.inter = InterPhase::kSequential;
  else if (inter_s == "SPg") df.inter = InterPhase::kSPGeneric;
  else if (inter_s == "SP") df.inter = InterPhase::kSPOptimized;
  else if (inter_s == "PP") df.inter = InterPhase::kParallelPipeline;
  else throw InvalidDataflowError("unknown inter-phase strategy: " + inter_s);

  if (order_s == "AC") df.phase_order = PhaseOrder::kAC;
  else if (order_s == "CA") df.phase_order = PhaseOrder::kCA;
  else throw InvalidDataflowError("unknown phase order: " + order_s);

  df.agg = IntraPhaseDataflow::parse(trim(text.substr(open + 1, comma - open - 1)),
                                     GnnPhase::kAggregation);
  df.cmb = IntraPhaseDataflow::parse(trim(text.substr(comma + 1, close - comma - 1)),
                                     GnnPhase::kCombination);
  return df;
}

}  // namespace omega
