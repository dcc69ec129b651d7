// Source languages Quilt can merge (§5.1) and their native string types.
//
// Serverless functions exchange only (JSON-encoded) strings, so merging
// across languages reduces to translating between string representations
// via C's char* (§5.3, Appendix D).
#ifndef SRC_IR_LANG_H_
#define SRC_IR_LANG_H_

#include <string>

namespace quilt {

enum class Lang { kC, kCpp, kRust, kGo, kSwift };

enum class StringKind {
  kCChar,        // char*
  kCppString,    // std::string
  kRustString,   // std::string::String
  kGoString,     // string (ptr+len header)
  kSwiftString,  // Swift.String
};

const char* LangName(Lang lang);

// The string type a language's serverless API uses natively.
StringKind NativeStringKind(Lang lang);

}  // namespace quilt

#endif  // SRC_IR_LANG_H_
