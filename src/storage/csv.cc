#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace wake {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

char TypeChar(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return 'i';
    case ValueType::kFloat64: return 'f';
    case ValueType::kString: return 's';
    case ValueType::kDate: return 'd';
    case ValueType::kBool: return 'b';
  }
  return '?';
}

ValueType TypeFromChar(char c) {
  switch (c) {
    case 'i': return ValueType::kInt64;
    case 'f': return ValueType::kFloat64;
    case 's': return ValueType::kString;
    case 'd': return ValueType::kDate;
    case 'b': return ValueType::kBool;
  }
  throw Error(std::string("bad type char: ") + c);
}

std::string FieldText(const Column& col, size_t row) {
  if (col.IsNull(row)) return "";
  switch (col.type()) {
    case ValueType::kFloat64:
      return StrFormat("%.17g", col.DoubleAt(row));
    case ValueType::kString:
      return col.StringAt(row);
    case ValueType::kDate:
      return FormatDate(col.IntAt(row));
    default:
      return std::to_string(col.IntAt(row));
  }
}

void AppendFieldText(ValueType type, const std::string& text, Column* col) {
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kBool:
      col->AppendInt(std::stoll(text));
      break;
    case ValueType::kFloat64:
      col->AppendDouble(std::stod(text));
      break;
    case ValueType::kString:
      col->AppendString(text);
      break;
    case ValueType::kDate:
      col->AppendInt(ParseDate(text));
      break;
  }
}

bool ParseCsvRecord(const std::string& content, size_t* offset,
                    std::vector<std::string>* fields,
                    std::vector<uint8_t>* quoted) {
  fields->clear();
  if (quoted != nullptr) quoted->clear();
  size_t i = *offset;
  size_t n = content.size();
  if (i >= n) return false;
  std::string field;
  bool in_quotes = false;
  bool was_quoted = false;
  auto emit = [&] {
    fields->push_back(std::move(field));
    field.clear();
    if (quoted != nullptr) quoted->push_back(was_quoted ? 1 : 0);
    was_quoted = false;
  };
  while (i < n) {
    char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && content[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      was_quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      emit();
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < n && content[i + 1] == '\n') ++i;
      ++i;
      emit();
      *offset = i;
      return true;
    }
    field += c;
    ++i;
  }
  CheckArg(!in_quotes, "unterminated quoted CSV field");
  emit();
  *offset = n;
  return true;
}

void WriteCsv(const DataFrame& df, const std::string& path) {
  std::ofstream out(path);
  CheckArg(out.good(), "cannot write " + path);
  const Schema& schema = df.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out << ',';
    out << QuoteField(schema.field(c).name + ":" +
                      TypeChar(schema.field(c).type));
  }
  out << '\n';
  for (size_t r = 0; r < df.num_rows(); ++r) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c > 0) out << ',';
      const Column& col = df.column(c);
      // NULL writes as an empty unquoted field; an empty non-null string
      // writes as `""` so the distinction survives a round trip.
      if (col.type() == ValueType::kString && !col.IsNull(r) &&
          col.StringAt(r).empty()) {
        out << "\"\"";
      } else {
        out << QuoteField(FieldText(col, r));
      }
    }
    out << '\n';
  }
}

namespace {

DataFrame ReadCsvImpl(const std::string& path, const Schema* given_schema,
                      const std::vector<std::string>& columns) {
  std::ifstream in(path);
  CheckArg(in.good(), "cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  size_t offset = 0;
  std::vector<std::string> fields;
  std::vector<uint8_t> quoted;

  Schema full;
  if (given_schema != nullptr) {
    full = *given_schema;
  } else {
    CheckArg(ParseCsvRecord(content, &offset, &fields),
             "empty CSV file " + path);
    for (const auto& header : fields) {
      size_t colon = header.rfind(':');
      CheckArg(colon != std::string::npos && colon + 2 == header.size(),
               "CSV header field must be name:type, got '" + header + "'");
      full.AddField(
          Field(header.substr(0, colon), TypeFromChar(header[colon + 1])));
    }
  }
  Schema schema = columns.empty() ? full : full.Select(columns);
  // File field f lands in output column slot_of[f]; npos fields are never
  // converted or interned.
  std::vector<size_t> slot_of = full.ProjectionSlots(schema);

  DataFrame df(schema);
  // Sources build dict-encoded string columns: the engine's hot paths then
  // hash/compare/gather int32 codes instead of whole strings.
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (schema.field(c).type == ValueType::kString) {
      *df.mutable_column(c) = Column::NewDict();
    }
  }
  while (ParseCsvRecord(content, &offset, &fields, &quoted)) {
    // Blank separator line — but in a single-column schema an empty
    // unquoted line is a legitimate NULL row, so only multi-column files
    // skip it.
    if (full.num_fields() > 1 && fields.size() == 1 && fields[0].empty() &&
        quoted[0] == 0) {
      continue;
    }
    CheckArg(fields.size() == full.num_fields(),
             StrFormat("CSV row has %zu fields, schema has %zu",
                       fields.size(), full.num_fields()));
    for (size_t c = 0; c < fields.size(); ++c) {
      if (slot_of[c] == Schema::npos) continue;
      Column* col = df.mutable_column(slot_of[c]);
      const std::string& text = fields[c];
      // Empty numeric/date fields are NULL however they were quoted (there
      // is no empty number); for strings the quotes disambiguate NULL
      // (unquoted) from the empty string (`""`).
      if (text.empty() && (quoted[c] == 0 ||
                           full.field(c).type != ValueType::kString)) {
        col->AppendNull();
        continue;
      }
      AppendFieldText(full.field(c).type, text, col);
    }
  }
  return df;
}

}  // namespace

DataFrame ReadCsv(const std::string& path,
                  const std::vector<std::string>& columns) {
  return ReadCsvImpl(path, nullptr, columns);
}

DataFrame ReadCsvWithSchema(const std::string& path, const Schema& schema,
                            const std::vector<std::string>& columns) {
  return ReadCsvImpl(path, &schema, columns);
}

}  // namespace wake
