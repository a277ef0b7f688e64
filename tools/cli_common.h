// Shared CLI plumbing for the ct* tools.
//
// ctlint and ctstat each take a list of query files (with "-" meaning
// stdin), read them with the same error handling, and fold per-input exit
// codes together by maximum.
#ifndef CLOUDTALK_TOOLS_CLI_COMMON_H_
#define CLOUDTALK_TOOLS_CLI_COMMON_H_

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace cloudtalk {
namespace cli {

// Reads one input file ("-" = stdin, displayed as "<stdin>"). Returns false
// with a `tool: cannot open` message on stderr when the file is unreadable.
inline bool ReadInput(const std::string& tool, const std::string& file, std::string* source,
                      std::string* display_name) {
  *display_name = file;
  if (file == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *source = buffer.str();
    *display_name = "<stdin>";
    return true;
  }
  std::ifstream in(file);
  if (!in) {
    std::cerr << tool << ": cannot open '" << file << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *source = buffer.str();
  return true;
}

// Runs `handler(source, display_name)` over every input and merges exit
// codes by maximum. Unreadable inputs contribute `open_error_exit` and do
// not stop the sweep.
inline int ForEachInput(const std::string& tool, const std::vector<std::string>& files,
                        int open_error_exit,
                        const std::function<int(const std::string&, const std::string&)>& handler) {
  int exit_code = 0;
  for (const std::string& file : files) {
    std::string source;
    std::string display_name;
    if (!ReadInput(tool, file, &source, &display_name)) {
      exit_code = std::max(exit_code, open_error_exit);
      continue;
    }
    exit_code = std::max(exit_code, handler(source, display_name));
  }
  return exit_code;
}

}  // namespace cli
}  // namespace cloudtalk

#endif  // CLOUDTALK_TOOLS_CLI_COMMON_H_
