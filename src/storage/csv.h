// RFC-4180-style CSV reader/writer.
//
// The paper's user sessions start with read_csv (§1, §3.1); this module
// provides the comma-separated path next to the pipe-separated .tbl and
// binary wakeblock formats. Quoting rules: fields containing commas, quotes,
// or newlines are double-quoted; embedded quotes are doubled.
#ifndef WAKE_STORAGE_CSV_H_
#define WAKE_STORAGE_CSV_H_

#include <string>

#include "frame/data_frame.h"

namespace wake {

/// Writes `df` to `path` with a `name:type` header row. NULLs of any type
/// write as empty unquoted fields; empty non-null strings write as `""`,
/// so the two survive a round trip.
void WriteCsv(const DataFrame& df, const std::string& path);

/// Reads a CSV produced by WriteCsv (schema from the header). Throws
/// wake::Error on malformed input. Empty unquoted fields read back as
/// NULL for every column type; quoted empty fields (`""`) are empty
/// strings. String columns come back dictionary-encoded. A non-empty
/// `columns` list makes the read projected: unselected fields are never
/// converted, allocated, or dict-encoded.
DataFrame ReadCsv(const std::string& path,
                  const std::vector<std::string>& columns = {});

/// Reads a headerless CSV against a caller-provided schema (optionally
/// projected to `columns`).
DataFrame ReadCsvWithSchema(const std::string& path, const Schema& schema,
                            const std::vector<std::string>& columns = {});

/// Parses one CSV record (handles quoting); exposed for testing. Returns
/// false at end of input. `offset` is consumed across calls. If `quoted`
/// is non-null it receives, per field, whether the field used quotes
/// (distinguishes NULL from the empty string).
bool ParseCsvRecord(const std::string& content, size_t* offset,
                    std::vector<std::string>* fields,
                    std::vector<uint8_t>* quoted = nullptr);

/// --- field text, shared with the .tbl format (partitioned_table.h) ---

/// One-letter type tag (`i f s d b`) of a header or meta field, and its
/// inverse (throws wake::Error on an unknown letter).
char TypeChar(ValueType t);
ValueType TypeFromChar(char c);

/// Unquoted text of one cell: empty for NULL, `%.17g` for doubles (so
/// they read back bit-exact), `YYYY-MM-DD` for dates.
std::string FieldText(const Column& col, size_t row);

/// Parses one non-empty field as `type` and appends it to `col`.
void AppendFieldText(ValueType type, const std::string& text, Column* col);

}  // namespace wake

#endif  // WAKE_STORAGE_CSV_H_
