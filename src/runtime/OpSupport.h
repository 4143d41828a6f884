#ifndef C4CAM_RUNTIME_OPSUPPORT_H
#define C4CAM_RUNTIME_OPSUPPORT_H

/**
 * @file
 * The executable op vocabulary and its diagnostics.
 *
 * The execution-plan compiler and the tree-walking test oracle support
 * exactly the same op set; this module owns the canonical list of
 * mnemonics and produces the shared unknown-op diagnostic. A kernel
 * outside the vocabulary fails at plan compile time with it: instead
 * of a bare "unsupported op" after the full dispatch chain, the error
 * names the op, the enclosing function and the nearest known mnemonic
 * (typo repair for hand-written IR).
 */

#include <string>
#include <vector>

namespace c4cam::ir {
class Operation;
}

namespace c4cam::rt {

/** Every op mnemonic the execution back ends can run. */
const std::vector<std::string> &knownOpMnemonics();

/**
 * The known mnemonic closest to @p name by edit distance, or an empty
 * string when nothing is within a useful distance (less than half the
 * query length).
 */
std::string nearestKnownMnemonic(const std::string &name);

/**
 * Raise the CompilerError for an op no back end supports: names the
 * op, the function enclosing @p op (when reachable) and the nearest
 * known mnemonic. @p backend tags the failing engine ("interpreter"
 * or "plan compiler").
 */
[[noreturn]] void throwUnknownOp(const char *backend, ir::Operation *op);

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_OPSUPPORT_H
