/**
 * @file
 * ExecutionPlan superop fusion (with chain collapse) and the plan
 * disassembler.
 *
 * What keeps optimized plans bit-identical to unoptimized plans and
 * the tree walk, including the simulated PerfReports: device ops
 * (Cam*, CimAcquire), timing scopes (Begin*Scope / EndScope) and
 * cost-posting ops (TopkOp, CamMergePartialSub) are never created,
 * removed or reordered relative to each other; fusion only merges a
 * Subview into the CamSearch that follows it, and never fuses across a
 * branch target.
 */

#include "runtime/PlanOptimizer.h"

#include <array>
#include <iomanip>
#include <sstream>
#include <unordered_set>

#include "runtime/ExecutionPlan.h"

namespace c4cam::rt {

namespace {

using Programs = std::array<std::vector<Instr> *, 3>;

bool
isIntPairOp(Opcode op)
{
    return op == Opcode::AddI || op == Opcode::SubI ||
           op == Opcode::MulI || op == Opcode::MinI || op == Opcode::MaxI;
}

bool
isFloatPairOp(Opcode op)
{
    return op == Opcode::AddF || op == Opcode::SubF ||
           op == Opcode::MulF || op == Opcode::DivF ||
           op == Opcode::MinF || op == Opcode::MaxF;
}

/** Dense IntSub code for a fusable int opcode (isIntPairOp holds). */
std::int64_t
intSubCode(Opcode op)
{
    switch (op) {
      case Opcode::AddI:
        return static_cast<std::int64_t>(IntSub::Add);
      case Opcode::SubI:
        return static_cast<std::int64_t>(IntSub::Sub);
      case Opcode::MulI:
        return static_cast<std::int64_t>(IntSub::Mul);
      case Opcode::MinI:
        return static_cast<std::int64_t>(IntSub::Min);
      default:
        return static_cast<std::int64_t>(IntSub::Max);
    }
}

/** Dense FloatSub code for a fusable float opcode. */
std::int64_t
floatSubCode(Opcode op)
{
    switch (op) {
      case Opcode::AddF:
        return static_cast<std::int64_t>(FloatSub::Add);
      case Opcode::SubF:
        return static_cast<std::int64_t>(FloatSub::Sub);
      case Opcode::MulF:
        return static_cast<std::int64_t>(FloatSub::Mul);
      case Opcode::DivF:
        return static_cast<std::int64_t>(FloatSub::Div);
      case Opcode::MinF:
        return static_cast<std::int64_t>(FloatSub::Min);
      default:
        return static_cast<std::int64_t>(FloatSub::Max);
    }
}
} // namespace

//
// Superop fusion + chain collapse
//

void
PlanOptimizer::runSuperopFusion(ExecutionPlan &plan, PlanOptReport &report)
{
    Programs progs = {&plan.full_, &plan.setup_, &plan.query_};
    for (std::vector<Instr> *prog_ptr : progs) {
        std::vector<Instr> &prog = *prog_ptr;
        std::unordered_set<std::int32_t> targets;
        for (const Instr &in : prog)
            if (in.target >= 0)
                targets.insert(in.target);
        std::vector<Instr> out;
        out.reserve(prog.size());
        std::vector<std::int32_t> map(prog.size() + 1, 0);
        std::size_t i = 0;
        const std::size_t n = prog.size();
        while (i < n) {
            map[i] = static_cast<std::int32_t>(out.size());
            const Instr &x = prog[i];
            // Fusing (i, i+1) is legal only when control cannot enter
            // at i+1; a jump to i runs both halves, same as before.
            if (i + 1 < n &&
                !targets.count(static_cast<std::int32_t>(i + 1))) {
                const Instr &y = prog[i + 1];
                Instr f;
                bool match = false;
                if (x.op == Opcode::CmpI &&
                    y.op == Opcode::BranchIfFalse && y.a == x.r) {
                    f.op = Opcode::FusedCmpBranch;
                    f.a = x.a;
                    f.b = x.b;
                    f.imm = x.imm;
                    f.r = x.r;
                    f.target = y.target;
                    match = true;
                } else if (x.op == Opcode::AddI && y.op == Opcode::Jump) {
                    f.op = Opcode::FusedAddJump;
                    f.a = x.a;
                    f.b = x.b;
                    f.r = x.r;
                    f.target = y.target;
                    match = true;
                } else if (x.op == Opcode::Subview &&
                           y.op == Opcode::CamSearch && y.b == x.r) {
                    f.op = Opcode::FusedSubviewSearch;
                    f.a = y.a;       // subarray handle
                    f.b = x.a;       // subview source buffer
                    f.r = x.r;       // subview result
                    f.aux = x.aux;   // slice spec
                    f.imm = y.aux;   // search spec
                    match = true;
                } else if (isIntPairOp(x.op) && isIntPairOp(y.op)) {
                    f.op = Opcode::FusedIntPair;
                    f.a = x.a;
                    f.b = x.b;
                    f.r = x.r;
                    f.c = y.a;
                    f.extra = {y.b};
                    f.r2 = y.r;
                    f.imm = intSubCode(x.op) | (intSubCode(y.op) << 8);
                    match = true;
                } else if (isFloatPairOp(x.op) && isFloatPairOp(y.op)) {
                    f.op = Opcode::FusedFloatPair;
                    f.a = x.a;
                    f.b = x.b;
                    f.r = x.r;
                    f.c = y.a;
                    f.extra = {y.b};
                    f.r2 = y.r;
                    f.imm = floatSubCode(x.op) | (floatSubCode(y.op) << 8);
                    match = true;
                } else if (x.op == Opcode::Copy && y.op == Opcode::Copy) {
                    f.op = Opcode::FusedCopyPair;
                    f.a = x.a;
                    f.r = x.r;
                    f.c = y.a;
                    f.r2 = y.r;
                    match = true;
                }
                if (match) {
                    map[i + 1] = static_cast<std::int32_t>(out.size());
                    out.push_back(std::move(f));
                    i += 2;
                    ++report.fusedSuperops;
                    continue;
                }
            }
            out.push_back(x);
            ++i;
        }
        map[n] = static_cast<std::int32_t>(out.size());
        for (Instr &in : out)
            if (in.target >= 0)
                in.target = map[static_cast<std::size_t>(in.target)];
        prog = std::move(out);
    }

    // Chain collapse. Fusion above only merges dispatches; the frame
    // traffic of the pair is unchanged. Here op2 operands that name
    // op1's result slot switch to register forwarding (kFusedChainX/Y),
    // and results whose every reader -- across all three phase
    // programs, the aux tables and the fused op itself -- is
    // chain-internal stop being stored at all (r = -1).
    std::vector<std::uint32_t> reads(
        static_cast<std::size_t>(plan.numSlots_), 0);
    auto count = [&](std::int32_t slot) {
        if (slot >= 0)
            ++reads[static_cast<std::size_t>(slot)];
    };
    for (std::vector<Instr> *prog : progs) {
        for (const Instr &in : *prog) {
            count(in.a);
            count(in.b);
            count(in.c);
            for (std::int32_t slot : in.extra)
                count(slot);
        }
    }
    for (const ExecutionPlan::SliceSpec &spec : plan.slices_) {
        for (const ExecutionPlan::SliceDim &dim : spec.offsets)
            count(dim.slot);
        for (const ExecutionPlan::SliceDim &dim : spec.sizes)
            count(dim.slot);
    }
    for (const ExecutionPlan::TopkSpec &spec : plan.topks_)
        count(spec.kSlot);
    for (const ExecutionPlan::SimilaritySpec &spec : plan.sims_)
        count(spec.kSlot);
    for (const ExecutionPlan::SearchSpec &spec : plan.searches_) {
        count(spec.rowBeginSlot);
        count(spec.rowEndSlot);
    }
    for (std::vector<Instr> *prog : progs) {
        for (Instr &in : *prog) {
            switch (in.op) {
              case Opcode::FusedIntPair:
              case Opcode::FusedFloatPair: {
                if (in.r < 0)
                    break;
                std::uint32_t internal = 0;
                if (in.c == in.r) {
                    in.imm |= kFusedChainX;
                    in.c = -1;
                    ++internal;
                }
                if (!in.extra.empty() && in.extra[0] == in.r) {
                    in.imm |= kFusedChainY;
                    in.extra.clear();
                    ++internal;
                }
                // reads[r] counts a/b self-references too, so a pair
                // whose op1 consumes r's previous value keeps the
                // store.
                if (internal != 0 &&
                    reads[static_cast<std::size_t>(in.r)] == internal) {
                    in.r = -1;
                    ++report.collapsedWrites;
                }
                break;
              }
              case Opcode::FusedCmpBranch:
              case Opcode::FusedSubviewSearch:
                // The branch decision / the search consume the result
                // in-op; with no slot readers the store is dead.
                if (in.r >= 0 &&
                    reads[static_cast<std::size_t>(in.r)] == 0) {
                    in.r = -1;
                    ++report.collapsedWrites;
                }
                break;
              case Opcode::FusedCopyPair:
                // Copy a->r; Copy r->r2 with r otherwise unread is
                // plain forwarding: Copy a->r2.
                if (in.c == in.r && in.r >= 0 &&
                    reads[static_cast<std::size_t>(in.r)] == 1) {
                    in.op = Opcode::Copy;
                    in.r = in.r2;
                    in.r2 = -1;
                    in.c = -1;
                    ++report.collapsedWrites;
                }
                break;
              default:
                break;
            }
        }
    }
}

//
// Driver
//

std::shared_ptr<const ExecutionPlan>
PlanOptimizer::optimize(const ExecutionPlan &plan, PlanOptReport *report)
{
    auto out = std::make_shared<ExecutionPlan>(plan);
    PlanOptReport local;
    PlanOptReport &rep = report ? *report : local;
    rep = PlanOptReport{};
    runSuperopFusion(*out, rep);
    return out;
}

//
// Disassembler
//

namespace {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Jump: return "Jump";
      case Opcode::BranchIfFalse: return "BranchIfFalse";
      case Opcode::BranchIfGe: return "BranchIfGe";
      case Opcode::Copy: return "Copy";
      case Opcode::CheckPosStep: return "CheckPosStep";
      case Opcode::BeginSeqScope: return "BeginSeqScope";
      case Opcode::BeginParScope: return "BeginParScope";
      case Opcode::EndScope: return "EndScope";
      case Opcode::Return: return "Return";
      case Opcode::Halt: return "Halt";
      case Opcode::ConstInt: return "ConstInt";
      case Opcode::ConstFloat: return "ConstFloat";
      case Opcode::CastToInt: return "CastToInt";
      case Opcode::CastToFloat: return "CastToFloat";
      case Opcode::Sqrt: return "Sqrt";
      case Opcode::Select: return "Select";
      case Opcode::CmpI: return "CmpI";
      case Opcode::CmpF: return "CmpF";
      case Opcode::AddI: return "AddI";
      case Opcode::SubI: return "SubI";
      case Opcode::MulI: return "MulI";
      case Opcode::DivI: return "DivI";
      case Opcode::RemI: return "RemI";
      case Opcode::MinI: return "MinI";
      case Opcode::MaxI: return "MaxI";
      case Opcode::AddF: return "AddF";
      case Opcode::SubF: return "SubF";
      case Opcode::MulF: return "MulF";
      case Opcode::DivF: return "DivF";
      case Opcode::MinF: return "MinF";
      case Opcode::MaxF: return "MaxF";
      case Opcode::AllocBuf: return "AllocBuf";
      case Opcode::CopyBuf: return "CopyBuf";
      case Opcode::Subview: return "Subview";
      case Opcode::LoadF: return "LoadF";
      case Opcode::LoadI: return "LoadI";
      case Opcode::Store: return "Store";
      case Opcode::Transpose2d: return "Transpose2d";
      case Opcode::MatmulOp: return "MatmulOp";
      case Opcode::SubBroadcastOp: return "SubBroadcastOp";
      case Opcode::DivElem: return "DivElem";
      case Opcode::DivCosine: return "DivCosine";
      case Opcode::NormOp: return "NormOp";
      case Opcode::TopkOp: return "TopkOp";
      case Opcode::SimilarityOp: return "SimilarityOp";
      case Opcode::MergePartial: return "MergePartial";
      case Opcode::CimAcquire: return "CimAcquire";
      case Opcode::CamAllocBank: return "CamAllocBank";
      case Opcode::CamAllocMat: return "CamAllocMat";
      case Opcode::CamAllocArray: return "CamAllocArray";
      case Opcode::CamAllocSubarray: return "CamAllocSubarray";
      case Opcode::CamGetSubarray: return "CamGetSubarray";
      case Opcode::CamWriteValue: return "CamWriteValue";
      case Opcode::CamSearch: return "CamSearch";
      case Opcode::CamRead: return "CamRead";
      case Opcode::CamMergePartialSub: return "CamMergePartialSub";
      case Opcode::FusedIntPair: return "FusedIntPair";
      case Opcode::FusedFloatPair: return "FusedFloatPair";
      case Opcode::FusedCopyPair: return "FusedCopyPair";
      case Opcode::FusedCmpBranch: return "FusedCmpBranch";
      case Opcode::FusedAddJump: return "FusedAddJump";
      case Opcode::FusedSubviewSearch: return "FusedSubviewSearch";
    }
    return "?";
}

bool
usesImm(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt:
      case Opcode::CmpI:
      case Opcode::CmpF:
      case Opcode::CheckPosStep:
      case Opcode::NormOp:
      case Opcode::CamWriteValue:
      case Opcode::FusedCmpBranch:
      case Opcode::FusedSubviewSearch:
        return true;
      default:
        return false;
    }
}

void
printInstr(std::ostream &os, const Instr &in, std::size_t idx)
{
    os << "  " << std::setw(4) << idx << "  " << std::left
       << std::setw(19) << opcodeName(in.op) << std::right;
    if (in.r >= 0)
        os << " r=s" << in.r;
    if (in.r2 >= 0)
        os << " r2=s" << in.r2;
    if (in.a >= 0)
        os << " a=s" << in.a;
    if (in.b >= 0)
        os << " b=s" << in.b;
    if (in.c >= 0)
        os << " c=s" << in.c;
    if (!in.extra.empty()) {
        os << " extra=[";
        for (std::size_t k = 0; k < in.extra.size(); ++k)
            os << (k ? "," : "") << "s" << in.extra[k];
        os << "]";
    }
    if (in.target >= 0)
        os << " -> @" << in.target;
    if (in.aux >= 0)
        os << " aux=#" << in.aux;
    if (in.op == Opcode::FusedIntPair) {
        static const char *const kIntSub[] = {"AddI", "SubI", "MulI",
                                              "MinI", "MaxI"};
        os << " ops=" << kIntSub[in.imm & 0xff] << "+"
           << kIntSub[(in.imm >> 8) & 0xff];
    } else if (in.op == Opcode::FusedFloatPair) {
        static const char *const kFloatSub[] = {"AddF", "SubF", "MulF",
                                                "DivF", "MinF", "MaxF"};
        os << " ops=" << kFloatSub[in.imm & 0xff] << "+"
           << kFloatSub[(in.imm >> 8) & 0xff];
    } else if (usesImm(in.op) || in.imm != 0)
        os << " imm=" << (in.op == Opcode::FusedCmpBranch
                              ? in.imm & 0xff
                              : in.imm);
    if (in.op == Opcode::FusedIntPair || in.op == Opcode::FusedFloatPair) {
        if (in.imm & (kFusedChainX | kFusedChainY)) {
            os << " chain=";
            if (in.imm & kFusedChainX)
                os << "x";
            if (in.imm & kFusedChainY)
                os << "y";
        }
    }
    if (in.op == Opcode::ConstFloat)
        os << " fimm=" << in.fimm;
    os << "\n";
}

} // namespace

std::string
PlanOptimizer::disassemble(const ExecutionPlan &plan)
{
    std::ostringstream os;
    os << "plan '" << plan.entry_ << "': " << plan.numArgs_
       << " args, " << plan.numSlots_ << " slots"
       << (plan.phased_ ? ", phased" : "") << "\n";
    os << "arg slots: [";
    for (std::size_t i = 0; i < plan.argSlots_.size(); ++i)
        os << (i ? "," : "") << "s" << plan.argSlots_[i];
    os << "]\n";
    auto printSliceDims =
        [&os](const std::vector<ExecutionPlan::SliceDim> &dims) {
            os << "[";
            for (std::size_t k = 0; k < dims.size(); ++k) {
                os << (k ? "," : "");
                if (dims[k].slot >= 0)
                    os << "s" << dims[k].slot;
                else
                    os << dims[k].imm;
            }
            os << "]";
        };
    struct Phase
    {
        const char *name;
        const std::vector<Instr> *prog;
    };
    const Phase phases[] = {{"full", &plan.full_},
                            {"setup", &plan.setup_},
                            {"query", &plan.query_}};
    for (const Phase &phase : phases) {
        os << "phase " << phase.name << " (" << phase.prog->size()
           << " instrs):\n";
        for (std::size_t i = 0; i < phase.prog->size(); ++i)
            printInstr(os, (*phase.prog)[i], i);
    }
    if (!plan.slices_.empty()) {
        os << "slices (" << plan.slices_.size() << "):\n";
        for (std::size_t i = 0; i < plan.slices_.size(); ++i) {
            os << "  #" << i << " offsets=";
            printSliceDims(plan.slices_[i].offsets);
            os << " sizes=";
            printSliceDims(plan.slices_[i].sizes);
            os << "\n";
        }
    }
    if (!plan.topks_.empty()) {
        os << "topks (" << plan.topks_.size() << "):\n";
        for (std::size_t i = 0; i < plan.topks_.size(); ++i) {
            const ExecutionPlan::TopkSpec &spec = plan.topks_[i];
            os << "  #" << i << " k=";
            if (spec.kSlot >= 0)
                os << "s" << spec.kSlot;
            else
                os << spec.k;
            os << " largest=" << (spec.largest ? 1 : 0)
               << " postMergeCost=" << (spec.postMergeCost ? 1 : 0)
               << "\n";
        }
    }
    if (!plan.searches_.empty()) {
        os << "searches (" << plan.searches_.size() << "):\n";
        for (std::size_t i = 0; i < plan.searches_.size(); ++i) {
            const ExecutionPlan::SearchSpec &spec = plan.searches_[i];
            os << "  #" << i << " kind=" << spec.kind
               << " euclidean=" << (spec.euclidean ? 1 : 0)
               << " selective=" << (spec.selective ? 1 : 0)
               << " threshold=" << spec.threshold << " rows=[";
            if (spec.rowBeginSlot >= 0)
                os << "s" << spec.rowBeginSlot;
            else
                os << spec.rowBegin;
            os << ",";
            if (spec.rowEndSlot >= 0)
                os << "s" << spec.rowEndSlot;
            else
                os << spec.rowEnd;
            os << ")\n";
        }
    }
    return os.str();
}

} // namespace c4cam::rt
