#include "src/ir/lang.h"

namespace quilt {

const char* LangName(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return "c";
    case Lang::kCpp:
      return "cpp";
    case Lang::kRust:
      return "rust";
    case Lang::kGo:
      return "go";
    case Lang::kSwift:
      return "swift";
  }
  return "?";
}

StringKind NativeStringKind(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return StringKind::kCChar;
    case Lang::kCpp:
      return StringKind::kCppString;
    case Lang::kRust:
      return StringKind::kRustString;
    case Lang::kGo:
      return StringKind::kGoString;
    case Lang::kSwift:
      return StringKind::kSwiftString;
  }
  return StringKind::kCChar;
}

}  // namespace quilt
