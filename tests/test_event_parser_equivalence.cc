// Equivalence of EventStreamReader's tokenizer with the reference rules.
//
// The reader splits each line into string views and converts plain numeric
// tokens directly, falling back to ParseDouble / ParseInt64 for anything
// else. This test replays a seeded corpus through the reader and through a
// reference reader built only on SplitTokens, ParseDouble and ParseInt64,
// and requires the two to agree on every call: the verdict, the error
// message, the event's value bits, line_number() and the rejected count.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "io/event_stream.h"

namespace cad {
namespace {

/// The reader's rules spelled out with the generic string helpers: the
/// reference the fast tokenizer must reproduce.
class ReferenceReader {
 public:
  ReferenceReader(std::istream* in, EventErrorPolicy policy,
                  NodeVocabulary* vocabulary, EventIdMode id_mode)
      : in_(in), policy_(policy), vocabulary_(vocabulary), id_mode_(id_mode) {
    if (vocabulary_ == nullptr) id_mode_ = EventIdMode::kInteger;
  }

  Result<std::optional<TimestampedEvent>> Next() {
    std::string line;
    while (std::getline(*in_, line)) {
      ++line_number_;
      const std::string_view stripped = StripWhitespace(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      const std::vector<std::string> fields = SplitTokens(stripped);
      bool committed_this_line = false;
      if (id_mode_ == EventIdMode::kAuto) {
        id_mode_ = (fields.size() >= 2 && IsId(fields[0]) && IsId(fields[1]))
                       ? EventIdMode::kInteger
                       : EventIdMode::kNamed;
        committed_this_line = true;
      }
      Result<TimestampedEvent> event = ParseLine(
          fields, id_mode_ == EventIdMode::kNamed ? vocabulary_ : nullptr);
      if (event.ok()) return std::optional<TimestampedEvent>(*event);
      if (committed_this_line) id_mode_ = EventIdMode::kAuto;
      if (policy_ == EventErrorPolicy::kStrict) return event.status();
      ++events_rejected_;
    }
    if (in_->bad()) return Status::IoError("read failed");
    return std::optional<TimestampedEvent>();
  }

  size_t line_number() const { return line_number_; }
  size_t events_rejected() const { return events_rejected_; }

 private:
  static bool IsId(const std::string& token) {
    Result<int64_t> value = ParseInt64(token);
    return value.ok() && *value >= 0;
  }

  Result<TimestampedEvent> ParseLine(const std::vector<std::string>& fields,
                                     NodeVocabulary* vocabulary) const {
    const auto error_at = [this](const std::string& message) {
      return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                     ": " + message);
    };
    if (fields.size() != 3 && fields.size() != 4) {
      return error_at("expected '<u> <v> <timestamp> [weight]'");
    }
    Result<double> timestamp = ParseDouble(fields[2]);
    if (!timestamp.ok()) return error_at("malformed event");
    if (!std::isfinite(*timestamp)) return error_at("non-finite timestamp");
    TimestampedEvent event;
    event.timestamp = *timestamp;
    if (fields.size() == 4) {
      Result<double> weight = ParseDouble(fields[3]);
      if (!weight.ok()) return error_at("malformed weight");
      if (!std::isfinite(*weight) || *weight < 0.0) {
        return error_at("weight must be finite and >= 0");
      }
      event.weight = *weight;
    }
    if (vocabulary == nullptr) {
      Result<int64_t> u = ParseInt64(fields[0]);
      Result<int64_t> v = ParseInt64(fields[1]);
      if (!u.ok() || !v.ok() || *u < 0 || *v < 0) {
        return error_at("malformed event");
      }
      event.u = static_cast<NodeId>(*u);
      event.v = static_cast<NodeId>(*v);
      return event;
    }
    const Status valid_u = NodeVocabulary::ValidateNodeName(fields[0]);
    if (!valid_u.ok()) return error_at(valid_u.message());
    const Status valid_v = NodeVocabulary::ValidateNodeName(fields[1]);
    if (!valid_v.ok()) return error_at(valid_v.message());
    Result<NodeId> u = vocabulary->Intern(fields[0]);
    if (!u.ok()) return error_at(u.status().message());
    Result<NodeId> v = vocabulary->Intern(fields[1]);
    if (!v.ok()) return error_at(v.status().message());
    event.u = *u;
    event.v = *v;
    return event;
  }

  std::istream* in_;
  EventErrorPolicy policy_;
  NodeVocabulary* vocabulary_;
  EventIdMode id_mode_;
  size_t line_number_ = 0;
  size_t events_rejected_ = 0;
};

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string Digits(Rng* rng, size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) {
    out += static_cast<char>('0' + rng->UniformInt(uint64_t{10}));
  }
  return out;
}

/// One token: plain decimals of every length around the 15-digit fast-path
/// limit, integers around the 18-digit one, and the tokens only strtod /
/// strtoll accept or reject.
std::string RandomToken(Rng* rng) {
  static const char* const kFixed[] = {
      "+1",     "-1",      "+0",       "-0",        "0x1p3",   "0X10",
      "inf",    "-inf",    "nan",      "NaN",       "infinity", "1e-310",
      "1e309",  "-1e-320", "4.9e-324", "1e5",       "1E-3",    "1.",
      ".5",     "-.5",     "1..2",     "--1",       "+-1",     "1a",
      "a1",     "-",       "+",        ".",         "e5",      "0.1",
      "007",    "00.000",  "2.5",      "-3.75",     "alice",   "bob",
      "n_1",    "x-y",     "9223372036854775807",   "9223372036854775808",
      "-9223372036854775808", "123456789012345",    "1234567890123456",
      "999999999999999.9",    "0.000000000000001",  "18446744073709551616"};
  const uint64_t kind = rng->UniformInt(uint64_t{8});
  if (kind == 0) {
    return kFixed[rng->UniformInt(sizeof(kFixed) / sizeof(kFixed[0]))];
  }
  if (kind == 1) {
    // Long digit runs: 63 characters and more.
    return Digits(rng, 63 + rng->UniformInt(uint64_t{20}));
  }
  if (kind == 2) return Digits(rng, 1 + rng->UniformInt(uint64_t{20}));
  std::string token = rng->Bernoulli(0.2) ? "-" : "";
  token += Digits(rng, 1 + rng->UniformInt(uint64_t{9}));
  if (rng->Bernoulli(0.8)) {
    token += '.';
    token += Digits(rng, rng->UniformInt(uint64_t{10}));
  }
  return token;
}

std::string RandomSeparator(Rng* rng) {
  static const char* const kSeparators[] = {" ", "\t", "  ", " \t ", "\v"};
  return kSeparators[rng->UniformInt(uint64_t{5})];
}

/// A seeded corpus of event lines: 2- to 5-field lines, tabs, leading and
/// trailing blanks, CRLF endings, comments, blank lines and, half the time,
/// no final newline.
std::string RandomCorpus(Rng* rng, size_t lines) {
  std::string corpus;
  for (size_t i = 0; i < lines; ++i) {
    const uint64_t shape = rng->UniformInt(uint64_t{20});
    if (shape == 0) {
      corpus += "# comment 1 2 3";
    } else if (shape == 1) {
      corpus += rng->Bernoulli(0.5) ? "" : " \t";
    } else {
      const size_t fields = shape < 4 ? 2 + rng->UniformInt(uint64_t{4})
                                      : 3 + rng->UniformInt(uint64_t{2});
      if (rng->Bernoulli(0.1)) corpus += RandomSeparator(rng);
      for (size_t f = 0; f < fields; ++f) {
        if (f > 0) corpus += RandomSeparator(rng);
        // Endpoints are mostly small ids, the rest mostly numbers.
        corpus += f < 2 && rng->Bernoulli(0.7)
                      ? std::to_string(rng->UniformInt(uint64_t{50}))
                      : RandomToken(rng);
      }
      if (rng->Bernoulli(0.1)) corpus += RandomSeparator(rng);
    }
    if (rng->Bernoulli(0.2)) corpus += "\r";
    if (i + 1 < lines || rng->Bernoulli(0.5)) corpus += "\n";
  }
  return corpus;
}

/// Replays `corpus` through both readers and requires identical results
/// call by call.
void ExpectSameReads(const std::string& corpus, EventErrorPolicy policy,
                     bool with_vocabulary, EventIdMode id_mode) {
  std::istringstream fast_in(corpus);
  std::istringstream reference_in(corpus);
  NodeVocabulary fast_vocabulary;
  NodeVocabulary reference_vocabulary;
  EventStreamReader fast(&fast_in, policy,
                         with_vocabulary ? &fast_vocabulary : nullptr, id_mode);
  ReferenceReader reference(&reference_in, policy,
                            with_vocabulary ? &reference_vocabulary : nullptr,
                            id_mode);
  for (size_t call = 0;; ++call) {
    Result<std::optional<TimestampedEvent>> got = fast.Next();
    Result<std::optional<TimestampedEvent>> want = reference.Next();
    ASSERT_EQ(got.ok(), want.ok()) << "call " << call;
    ASSERT_EQ(fast.line_number(), reference.line_number()) << "call " << call;
    if (!got.ok()) {
      ASSERT_EQ(got.status().code(), want.status().code());
      ASSERT_EQ(got.status().message(), want.status().message());
      break;  // strict policy: the read ends here
    }
    ASSERT_EQ(got->has_value(), want->has_value()) << "call " << call;
    if (!got->has_value()) break;
    const TimestampedEvent& a = **got;
    const TimestampedEvent& b = **want;
    ASSERT_EQ(a.u, b.u) << "line " << fast.line_number();
    ASSERT_EQ(a.v, b.v) << "line " << fast.line_number();
    ASSERT_EQ(Bits(a.timestamp), Bits(b.timestamp))
        << "line " << fast.line_number() << ": " << a.timestamp << " vs "
        << b.timestamp;
    ASSERT_EQ(Bits(a.weight), Bits(b.weight))
        << "line " << fast.line_number() << ": " << a.weight << " vs "
        << b.weight;
  }
  EXPECT_EQ(fast.events_rejected_parse(), reference.events_rejected());
  EXPECT_EQ(fast_vocabulary, reference_vocabulary);
}

class EventParserEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventParserEquivalence, SkipPolicyMatchesReferenceOnCorpus) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::string corpus = RandomCorpus(&rng, 200);
    ExpectSameReads(corpus, EventErrorPolicy::kSkip, false,
                    EventIdMode::kAuto);
    ExpectSameReads(corpus, EventErrorPolicy::kSkip, true, EventIdMode::kAuto);
    ExpectSameReads(corpus, EventErrorPolicy::kSkip, true,
                    EventIdMode::kNamed);
  }
}

TEST_P(EventParserEquivalence, StrictPolicyStopsAtTheSameLine) {
  Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string corpus = RandomCorpus(&rng, 30);
    ExpectSameReads(corpus, EventErrorPolicy::kStrict, false,
                    EventIdMode::kAuto);
    ExpectSameReads(corpus, EventErrorPolicy::kStrict, true,
                    EventIdMode::kAuto);
  }
}

TEST_P(EventParserEquivalence, PlainDecimalsKeepStrtodBits) {
  // Dense sweep of the direct-conversion path: timestamps and weights of
  // every digit split up to and past the 15-digit limit.
  Rng rng(GetParam() + 900);
  std::string corpus;
  for (int i = 0; i < 4000; ++i) {
    const size_t int_digits = 1 + rng.UniformInt(uint64_t{16});
    const size_t frac_digits = rng.UniformInt(uint64_t{17});
    std::string number = Digits(&rng, int_digits);
    if (frac_digits > 0 || rng.Bernoulli(0.1)) {
      number += '.';
      number += Digits(&rng, frac_digits);
    }
    corpus += "1 2 " + number + " " + number + "\n";
  }
  ExpectSameReads(corpus, EventErrorPolicy::kSkip, false, EventIdMode::kAuto);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventParserEquivalence,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace cad
