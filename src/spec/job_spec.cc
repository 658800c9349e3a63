#include "spec/job_spec.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace htune {
namespace {

// Strips whitespace and a trailing "# comment".
std::string Clean(std::string_view line) {
  const size_t hash = line.find('#');
  if (hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  size_t begin = 0, end = line.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(line[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(line[end - 1]))) {
    --end;
  }
  return std::string(line.substr(begin, end - begin));
}

StatusOr<double> ParseDouble(const std::string& text,
                             const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("bad number for " + what + ": '" + text +
                                "'");
  }
  return value;
}

StatusOr<long> ParseLong(const std::string& text, const std::string& what) {
  HTUNE_ASSIGN_OR_RETURN(const double value, ParseDouble(text, what));
  const long rounded = static_cast<long>(value);
  if (static_cast<double>(rounded) != value) {
    return InvalidArgumentError(what + " must be an integer: '" + text +
                                "'");
  }
  return rounded;
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  std::string current;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        words.push_back(current);
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) words.push_back(current);
  return words;
}

}  // namespace

StatusOr<std::shared_ptr<const PriceRateCurve>> ParseCurveSpec(
    std::string_view text) {
  const std::vector<std::string> words = SplitWords(Clean(text));
  if (words.empty()) {
    return InvalidArgumentError("curve: empty specification");
  }
  const std::string& kind = words[0];
  if (kind == "linear") {
    if (words.size() != 3) {
      return InvalidArgumentError("curve: linear needs <slope> <intercept>");
    }
    HTUNE_ASSIGN_OR_RETURN(const double k, ParseDouble(words[1], "slope"));
    HTUNE_ASSIGN_OR_RETURN(const double b,
                           ParseDouble(words[2], "intercept"));
    if (k < 0.0 || k + b <= 0.0) {
      return InvalidArgumentError(
          "curve: linear needs slope >= 0 and a positive rate at price 1");
    }
    return std::shared_ptr<const PriceRateCurve>(
        std::make_shared<LinearCurve>(k, b));
  }
  if (kind == "quadratic") {
    if (words.size() != 3) {
      return InvalidArgumentError(
          "curve: quadratic needs <coefficient> <intercept>");
    }
    HTUNE_ASSIGN_OR_RETURN(const double a,
                           ParseDouble(words[1], "coefficient"));
    HTUNE_ASSIGN_OR_RETURN(const double b,
                           ParseDouble(words[2], "intercept"));
    if (a < 0.0 || a + b <= 0.0) {
      return InvalidArgumentError(
          "curve: quadratic needs coefficient >= 0 and a positive rate at "
          "price 1");
    }
    return std::shared_ptr<const PriceRateCurve>(
        std::make_shared<QuadraticCurve>(a, b));
  }
  if (kind == "log") {
    if (words.size() != 2) {
      return InvalidArgumentError("curve: log needs <scale>");
    }
    HTUNE_ASSIGN_OR_RETURN(const double s, ParseDouble(words[1], "scale"));
    if (s <= 0.0) {
      return InvalidArgumentError("curve: log scale must be positive");
    }
    return std::shared_ptr<const PriceRateCurve>(
        std::make_shared<LogCurve>(s));
  }
  if (kind == "sigmoid") {
    if (words.size() != 4) {
      return InvalidArgumentError(
          "curve: sigmoid needs <max_rate> <midpoint> <width>");
    }
    HTUNE_ASSIGN_OR_RETURN(const double max_rate,
                           ParseDouble(words[1], "max_rate"));
    HTUNE_ASSIGN_OR_RETURN(const double midpoint,
                           ParseDouble(words[2], "midpoint"));
    HTUNE_ASSIGN_OR_RETURN(const double width, ParseDouble(words[3], "width"));
    if (max_rate <= 0.0 || width <= 0.0) {
      return InvalidArgumentError(
          "curve: sigmoid needs positive max_rate and width");
    }
    return std::shared_ptr<const PriceRateCurve>(
        std::make_shared<SigmoidCurve>(max_rate, midpoint, width));
  }
  if (kind == "table") {
    if (words.size() != 2) {
      return InvalidArgumentError("curve: table needs p:r,p:r,...");
    }
    std::vector<std::pair<double, double>> points;
    for (const std::string& pair : SplitString(words[1], ',')) {
      const std::vector<std::string> parts = SplitString(pair, ':');
      if (parts.size() != 2) {
        return InvalidArgumentError("curve: bad table point '" + pair + "'");
      }
      HTUNE_ASSIGN_OR_RETURN(const double p,
                             ParseDouble(parts[0], "table price"));
      HTUNE_ASSIGN_OR_RETURN(const double r,
                             ParseDouble(parts[1], "table rate"));
      points.emplace_back(p, r);
    }
    HTUNE_ASSIGN_OR_RETURN(TableCurve curve,
                           TableCurve::Create(std::move(points), "table"));
    return std::shared_ptr<const PriceRateCurve>(
        std::make_shared<TableCurve>(std::move(curve)));
  }
  return InvalidArgumentError("curve: unknown kind '" + kind +
                              "' (linear|quadratic|log|sigmoid|table)");
}

StatusOr<JobSpec> ParseJobSpec(std::string_view text) {
  JobSpec spec;
  TaskGroup* group = nullptr;  // null while in the top-level section
  int line_number = 0;
  for (const std::string& raw : SplitString(text, '\n')) {
    ++line_number;
    const std::string line = Clean(raw);
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_number) + ": ";

    if (line == "[group]") {
      spec.problem.groups.emplace_back();
      group = &spec.problem.groups.back();
      group->name = "group " + std::to_string(spec.problem.groups.size());
      continue;
    }
    if (line.front() == '[') {
      return InvalidArgumentError(where + "unknown section " + line);
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError(where + "expected key = value");
    }
    const std::string key = Clean(line.substr(0, eq));
    const std::string value = Clean(line.substr(eq + 1));
    if (value.empty()) {
      return InvalidArgumentError(where + "empty value for " + key);
    }

    Status status = OkStatus();
    if (group == nullptr) {
      if (key == "budget") {
        HTUNE_ASSIGN_OR_RETURN(spec.problem.budget, ParseLong(value, key));
      } else if (key == "arrival_rate") {
        HTUNE_ASSIGN_OR_RETURN(spec.arrival_rate, ParseDouble(value, key));
      } else if (key == "error_prob") {
        HTUNE_ASSIGN_OR_RETURN(spec.worker_error_prob,
                               ParseDouble(value, key));
      } else if (key == "abandon_prob") {
        HTUNE_ASSIGN_OR_RETURN(spec.abandon_prob, ParseDouble(value, key));
      } else if (key == "abandon_hold_rate") {
        HTUNE_ASSIGN_OR_RETURN(spec.abandon_hold_rate,
                               ParseDouble(value, key));
      } else if (key == "seed") {
        HTUNE_ASSIGN_OR_RETURN(const long seed, ParseLong(value, key));
        spec.seed = static_cast<uint64_t>(seed);
      } else {
        return InvalidArgumentError(where + "unknown top-level key '" + key +
                                    "'");
      }
    } else {
      if (key == "name") {
        group->name = value;
      } else if (key == "tasks") {
        HTUNE_ASSIGN_OR_RETURN(const long tasks, ParseLong(value, key));
        group->num_tasks = static_cast<int>(tasks);
      } else if (key == "repetitions") {
        HTUNE_ASSIGN_OR_RETURN(const long reps, ParseLong(value, key));
        group->repetitions = static_cast<int>(reps);
      } else if (key == "processing_rate") {
        HTUNE_ASSIGN_OR_RETURN(group->processing_rate,
                               ParseDouble(value, key));
      } else if (key == "curve") {
        HTUNE_ASSIGN_OR_RETURN(group->curve, ParseCurveSpec(value));
      } else {
        return InvalidArgumentError(where + "unknown group key '" + key +
                                    "'");
      }
    }
    HTUNE_RETURN_IF_ERROR(status);
  }

  const Status valid = ValidateProblem(spec.problem);
  if (!valid.ok()) {
    return InvalidArgumentError("spec invalid: " + valid.ToString());
  }
  if (spec.arrival_rate <= 0.0) {
    return InvalidArgumentError("arrival_rate must be positive");
  }
  if (spec.worker_error_prob < 0.0 || spec.worker_error_prob > 1.0) {
    return InvalidArgumentError("error_prob must lie in [0, 1]");
  }
  if (spec.abandon_prob < 0.0 || spec.abandon_prob >= 1.0) {
    return InvalidArgumentError("abandon_prob must lie in [0, 1)");
  }
  if (spec.abandon_prob > 0.0 && spec.abandon_hold_rate <= 0.0) {
    return InvalidArgumentError(
        "abandon_hold_rate must be positive when abandon_prob > 0");
  }
  return spec;
}

MarketConfig MarketConfigFor(const JobSpec& spec, uint64_t seed) {
  MarketConfig market;
  market.worker_arrival_rate = spec.arrival_rate;
  market.worker_error_prob = spec.worker_error_prob;
  market.abandon_prob = spec.abandon_prob;
  market.abandon_hold_rate = spec.abandon_hold_rate;
  market.seed = seed;
  return market;
}

StatusOr<JobSpec> LoadJobSpec(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError("cannot read spec file: " + path);
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return ParseJobSpec(text);
}

}  // namespace htune
