#include "sim/runner.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/wire.h"

namespace iobt::sim {

namespace {

// Journal lines are tab-separated; payload/metrics fields get '\\', tab and
// newline escaped so any single-line-safe encoding survives verbatim.
std::string escape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

bool unescape_field(std::string_view s, std::string& out) {
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) return false;
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: return false;
    }
  }
  return true;
}

bool parse_entry(const std::string& line, JournalEntry& e) {
  // rep \t seed \t index \t wall_ms \t payload \t metrics
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields.push_back(std::string_view(line).substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != 6 || fields[0] != "rep") return false;
  std::uint64_t index = 0;
  if (!parse_u64_token(fields[1], e.seed) || !parse_u64_token(fields[2], index)) {
    return false;
  }
  e.index = static_cast<std::size_t>(index);
  char* end = nullptr;
  const std::string tok(fields[3]);
  e.wall_ms = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || tok.empty()) return false;
  return unescape_field(fields[4], e.payload) &&
         unescape_field(fields[5], e.metrics);
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    JournalEntry e;
    // Malformed lines (partial write at a kill point, foreign content) are
    // skipped, not fatal: resume re-runs whatever is missing.
    if (parse_entry(line, e)) entries_.push_back(std::move(e));
  }
  // getline strips '\n' but leaves a crash-truncated final line intact, so
  // re-check the raw tail byte: if the file does not end in '\n', the next
  // append must start a fresh line or it would fuse with the partial one.
  in.clear();
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    in.seekg(-1, std::ios::end);
    char last_char = '\n';
    in.get(last_char);
    tail_needs_newline_ = last_char != '\n';
  }
}

const JournalEntry* CampaignJournal::find(std::uint64_t seed,
                                          std::size_t index) const {
  // Last write wins so a re-run of an already-journaled replication (e.g.
  // after a decode-era format change) supersedes the stale entry.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->seed == seed && it->index == index) return &*it;
  }
  return nullptr;
}

void CampaignJournal::append(const JournalEntry& e) {
  std::ostringstream line;
  line << "rep\t" << e.seed << '\t' << e.index << '\t' << e.wall_ms << '\t'
       << escape_field(e.payload) << '\t' << escape_field(e.metrics) << '\n';
  std::string text = line.str();
  std::lock_guard<std::mutex> lock(mu_);
  if (tail_needs_newline_) {
    // The file ends in a crash-truncated partial line; terminate it so the
    // new entry starts cleanly (the partial line stays malformed and is
    // skipped on load, instead of swallowing this entry too). Folded into
    // the single write below so durability is judged on the whole record.
    text.insert(text.begin(), '\n');
  }
  std::ofstream out(path_, std::ios::app);
  if (!out.is_open()) {
    // Nothing reached the disk: the tail state is whatever it was.
    throw std::runtime_error("CampaignJournal: cannot open '" + path_ +
                             "' for append");
  }
  out << text;
  out.flush();
  if (!out) {
    // The write (or its flush) failed partway: some prefix of the line may
    // be on disk. Treat it exactly like a crash-truncated tail — the next
    // append starts a fresh line and the loader skips the fragment — and
    // surface the failure instead of pretending the entry is durable. The
    // in-memory roster is NOT updated: memory and disk stay consistent,
    // and a resume will re-run this replication.
    tail_needs_newline_ = true;
    throw std::runtime_error("CampaignJournal: write to '" + path_ +
                             "' failed; entry for seed " +
                             std::to_string(e.seed) + " index " +
                             std::to_string(e.index) + " is not durable");
  }
  tail_needs_newline_ = false;
  entries_.push_back(e);
}

std::vector<std::uint64_t> ParallelRunner::seed_range(std::uint64_t base,
                                                      std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = base + i;
  return seeds;
}

}  // namespace iobt::sim
