#include "warehouse/snapshot.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/checksum.h"
#include "common/faults.h"
#include "common/io.h"
#include "common/strings.h"
#include "warehouse/schema_def.h"

namespace ddgms::warehouse {

namespace {

constexpr char kMagic[] = "DDWSNAP1";  // 8 bytes, no terminator on disk
constexpr size_t kMagicSize = 8;

enum SectionKind : uint8_t {
  kSchemaSection = 1,
  kFactSection = 2,
  kDimensionSection = 3,
};

void EncodeColumn(const ColumnVector& col, std::string* out) {
  const size_t rows = col.size();
  PutLengthPrefixed(out, col.name());
  PutU8(out, static_cast<uint8_t>(col.type()));
  // Packed validity bitmap, bit i set = row i is non-null.
  std::string bitmap((rows + 7) / 8, '\0');
  for (size_t i = 0; i < rows; ++i) {
    if (!col.IsNull(i)) bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  out->append(bitmap);
  switch (col.type()) {
    case DataType::kBool:
      for (size_t i = 0; i < rows; ++i) {
        PutU8(out, !col.IsNull(i) && col.BoolAt(i) ? 1 : 0);
      }
      break;
    case DataType::kInt64:
      for (size_t i = 0; i < rows; ++i) {
        PutI64(out, col.IsNull(i) ? 0 : col.IntAt(i));
      }
      break;
    case DataType::kDouble:
      for (size_t i = 0; i < rows; ++i) {
        PutF64(out, col.IsNull(i) ? 0.0 : col.DoubleAt(i));
      }
      break;
    case DataType::kDate:
      for (size_t i = 0; i < rows; ++i) {
        PutI32(out,
               col.IsNull(i) ? 0 : col.DateAt(i).days_since_epoch());
      }
      break;
    case DataType::kString:
      for (size_t i = 0; i < rows; ++i) {
        PutLengthPrefixed(out,
                          col.IsNull(i) ? std::string_view()
                                        : std::string_view(col.StringAt(i)));
      }
      break;
    case DataType::kNull:
      break;  // excluded by ColumnVector's constructor contract
  }
}

/// Bytes EncodeColumn appends for `col`.
size_t EncodedColumnSize(const ColumnVector& col) {
  const size_t rows = col.size();
  size_t bytes = 4 + col.name().size() + 1 + (rows + 7) / 8;
  switch (col.type()) {
    case DataType::kBool:
      bytes += rows;
      break;
    case DataType::kInt64:
    case DataType::kDouble:
      bytes += 8 * rows;
      break;
    case DataType::kDate:
      bytes += 4 * rows;
      break;
    case DataType::kString:
      bytes += 4 * rows;
      for (size_t i = 0; i < rows; ++i) {
        if (!col.IsNull(i)) bytes += col.StringAt(i).size();
      }
      break;
    case DataType::kNull:
      break;
  }
  return bytes;
}

/// Bytes EncodeTable appends for `table`.
size_t EncodedTableSize(const Table& table) {
  size_t bytes = 4 + 8;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bytes += EncodedColumnSize(table.column(c));
  }
  return bytes;
}

/// Smallest typed-page entry of a column type: a row count larger than
/// the remaining bytes over this cannot be genuine.
size_t MinRowBytes(DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kDate:
    case DataType::kString:
      return 4;
    default:
      return 1;
  }
}

Result<ColumnVector> DecodeColumn(ByteReader* reader, size_t rows) {
  DDGMS_ASSIGN_OR_RETURN(std::string_view name,
                         reader->ReadLengthPrefixed());
  DDGMS_ASSIGN_OR_RETURN(uint8_t type_tag, reader->ReadU8());
  if (type_tag == 0 || type_tag > static_cast<uint8_t>(DataType::kDate)) {
    return Status::ParseError(
        StrFormat("bad column type tag %u for column '%s'",
                  static_cast<unsigned>(type_tag),
                  std::string(name).c_str()));
  }
  const DataType type = static_cast<DataType>(type_tag);
  // Every row takes at least one byte, and a row count past the bytes
  // left would also wrap the bitmap's size below.
  if (rows > reader->remaining()) {
    return Status::DataLoss(
        StrFormat("column '%s' claims %zu rows in %zu bytes",
                  std::string(name).c_str(), rows, reader->remaining()));
  }
  DDGMS_ASSIGN_OR_RETURN(std::string_view bitmap,
                         reader->ReadBytes((rows + 7) / 8));
  auto valid = [&bitmap](size_t i) {
    return (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1u;
  };
  ColumnVector col(std::string(name), type);
  // Reserve up front, but never more rows than the remaining bytes can
  // hold: a corrupt row count must surface as a short read, not as a
  // huge allocation.
  col.Reserve(std::min(rows, reader->remaining() / MinRowBytes(type)));
  for (size_t i = 0; i < rows; ++i) {
    switch (type) {
      case DataType::kBool: {
        DDGMS_ASSIGN_OR_RETURN(uint8_t v, reader->ReadU8());
        if (valid(i)) {
          col.AppendBool(v != 0);
        } else {
          col.AppendNull();
        }
        break;
      }
      case DataType::kInt64: {
        DDGMS_ASSIGN_OR_RETURN(int64_t v, reader->ReadI64());
        if (valid(i)) {
          col.AppendInt(v);
        } else {
          col.AppendNull();
        }
        break;
      }
      case DataType::kDouble: {
        DDGMS_ASSIGN_OR_RETURN(double v, reader->ReadF64());
        if (valid(i)) {
          col.AppendDouble(v);
        } else {
          col.AppendNull();
        }
        break;
      }
      case DataType::kDate: {
        DDGMS_ASSIGN_OR_RETURN(int32_t v, reader->ReadI32());
        if (valid(i)) {
          col.AppendDate(Date(v));
        } else {
          col.AppendNull();
        }
        break;
      }
      case DataType::kString: {
        DDGMS_ASSIGN_OR_RETURN(std::string_view v,
                               reader->ReadLengthPrefixed());
        if (valid(i)) {
          col.AppendString(v);
        } else {
          col.AppendNull();
        }
        break;
      }
      case DataType::kNull:
        return Status::ParseError("null-typed column in snapshot");
    }
  }
  return col;
}

constexpr size_t kHeaderSize = kMagicSize + 3 * 4;

/// Bytes AppendSection adds for a payload of `payload_size` bytes.
size_t SectionSize(std::string_view name, size_t payload_size) {
  return 1 + 4 + name.size() + 8 + 4 + payload_size;
}

/// Overwrites `width` bytes at `offset` with `v`, little-endian.
void PatchLittleEndian(std::string* out, size_t offset, uint64_t v,
                       size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*out)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Appends one section. `encode_payload(out)` appends the payload in
/// place behind the section header, whose payload length and CRC are
/// patched afterwards, so no payload temporary is ever held.
template <typename EncodePayload>
void AppendSection(std::string* out, SectionKind kind,
                   std::string_view name, EncodePayload encode_payload) {
  PutU8(out, static_cast<uint8_t>(kind));
  PutLengthPrefixed(out, name);
  const size_t length_at = out->size();
  PutU64(out, 0);  // payload length, patched below
  PutU32(out, 0);  // masked payload CRC, patched below
  const size_t payload_at = out->size();
  encode_payload(out);
  const std::string_view payload = std::string_view(*out).substr(payload_at);
  PatchLittleEndian(out, length_at, payload.size(), 8);
  PatchLittleEndian(out, length_at + 8, MaskCrc32c(Crc32c(payload)), 4);
}

struct Section {
  SectionKind kind;
  std::string name;
  std::string_view payload;
};

Result<Section> ReadSection(ByteReader* reader) {
  DDGMS_ASSIGN_OR_RETURN(uint8_t kind, reader->ReadU8());
  if (kind < kSchemaSection || kind > kDimensionSection) {
    return Status::ParseError(
        StrFormat("bad snapshot section kind %u at offset %zu",
                  static_cast<unsigned>(kind), reader->offset() - 1));
  }
  DDGMS_ASSIGN_OR_RETURN(std::string_view name,
                         reader->ReadLengthPrefixed());
  DDGMS_ASSIGN_OR_RETURN(uint64_t payload_len, reader->ReadU64());
  DDGMS_ASSIGN_OR_RETURN(uint32_t stored_crc, reader->ReadU32());
  DDGMS_ASSIGN_OR_RETURN(std::string_view payload,
                         reader->ReadBytes(payload_len));
  if (MaskCrc32c(Crc32c(payload)) != stored_crc) {
    return Status::DataLoss(
        StrFormat("checksum mismatch in snapshot section '%s' "
                  "(%llu payload bytes)",
                  std::string(name).c_str(),
                  static_cast<unsigned long long>(payload_len)));
  }
  return Section{static_cast<SectionKind>(kind), std::string(name),
                 payload};
}

}  // namespace

void EncodeTable(const Table& table, std::string* out) {
  PutU32(out, static_cast<uint32_t>(table.num_columns()));
  PutU64(out, table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EncodeColumn(table.column(c), out);
  }
}

Result<Table> DecodeTable(std::string_view bytes) {
  ByteReader reader(bytes);
  DDGMS_ASSIGN_OR_RETURN(uint32_t num_columns, reader.ReadU32());
  DDGMS_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadU64());
  Table table;
  for (uint32_t c = 0; c < num_columns; ++c) {
    DDGMS_ASSIGN_OR_RETURN(ColumnVector col,
                           DecodeColumn(&reader, num_rows));
    DDGMS_RETURN_IF_ERROR(table.AddColumn(std::move(col)));
  }
  if (reader.remaining() != 0) {
    return Status::ParseError(
        StrFormat("%zu trailing bytes after table payload",
                  reader.remaining()));
  }
  return table;
}

std::string EncodeSnapshot(const Warehouse& wh) {
  // The image is built in one buffer reserved to its exact size: a
  // growing buffer would hold up to twice the file while it doubles.
  const std::string schema = SerializeSchemaDef(wh.def());
  size_t size = kHeaderSize + SectionSize("schema", schema.size()) +
                SectionSize("fact", EncodedTableSize(wh.fact()));
  for (const Dimension& dim : wh.dimensions()) {
    size += SectionSize(dim.name(), EncodedTableSize(dim.table()));
  }
  std::string out;
  out.reserve(size);
  out.append(kMagic, kMagicSize);
  PutU32(&out, kSnapshotFormatVersion);
  PutU32(&out, static_cast<uint32_t>(2 + wh.dimensions().size()));
  PutU32(&out, MaskCrc32c(Crc32c(out)));

  AppendSection(&out, kSchemaSection, "schema",
                [&schema](std::string* o) { o->append(schema); });
  AppendSection(&out, kFactSection, "fact",
                [&wh](std::string* o) { EncodeTable(wh.fact(), o); });
  for (const Dimension& dim : wh.dimensions()) {
    AppendSection(&out, kDimensionSection, dim.name(),
                  [&dim](std::string* o) { EncodeTable(dim.table(), o); });
  }
  assert(out.size() == size);
  return out;
}

Result<Warehouse> DecodeSnapshot(std::string_view bytes) {
  ByteReader reader(bytes);
  DDGMS_ASSIGN_OR_RETURN(std::string_view magic,
                         reader.ReadBytes(kMagicSize));
  if (magic != std::string_view(kMagic, kMagicSize)) {
    return Status::ParseError("not a ddgms snapshot (bad magic)");
  }
  DDGMS_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kSnapshotFormatVersion) {
    return Status::ParseError(
        StrFormat("unsupported snapshot format version %u", version));
  }
  DDGMS_ASSIGN_OR_RETURN(uint32_t section_count, reader.ReadU32());
  DDGMS_ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  if (MaskCrc32c(Crc32c(bytes.substr(0, kMagicSize + 8))) != stored_crc) {
    return Status::DataLoss("snapshot header checksum mismatch");
  }

  const StarSchemaDef* parsed_def = nullptr;
  StarSchemaDef def;
  bool have_fact = false;
  Table fact;
  std::vector<std::pair<std::string, Table>> dim_tables;
  for (uint32_t s = 0; s < section_count; ++s) {
    DDGMS_FAULT_POINT("snapshot.read_section");
    DDGMS_ASSIGN_OR_RETURN(Section section, ReadSection(&reader));
    switch (section.kind) {
      case kSchemaSection: {
        DDGMS_ASSIGN_OR_RETURN(
            def, ParseSchemaDef(std::string(section.payload)));
        parsed_def = &def;
        break;
      }
      case kFactSection: {
        DDGMS_ASSIGN_OR_RETURN(fact, DecodeTable(section.payload));
        have_fact = true;
        break;
      }
      case kDimensionSection: {
        DDGMS_ASSIGN_OR_RETURN(Table dim_table,
                               DecodeTable(section.payload));
        dim_tables.emplace_back(section.name, std::move(dim_table));
        break;
      }
    }
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss(
        StrFormat("%zu trailing bytes after last snapshot section",
                  reader.remaining()));
  }
  if (parsed_def == nullptr || !have_fact) {
    return Status::DataLoss("snapshot is missing schema or fact section");
  }

  // Assemble dimensions in schema order so surrogate keys line up.
  std::vector<Dimension> dimensions;
  dimensions.reserve(def.dimensions.size());
  for (const DimensionDef& dim_def : def.dimensions) {
    Table* found = nullptr;
    for (auto& [name, dim_table] : dim_tables) {
      if (name == dim_def.name) {
        found = &dim_table;
        break;
      }
    }
    if (found == nullptr) {
      return Status::DataLoss("snapshot is missing dimension table '" +
                              dim_def.name + "'");
    }
    dimensions.emplace_back(dim_def, std::move(*found));
  }

  Warehouse wh(std::move(def), std::move(fact), std::move(dimensions));
  IntegrityReport report = wh.CheckIntegrity();
  if (!report.ok) {
    return Status::DataLoss(
        "snapshot decoded but failed warehouse integrity check:\n" +
        report.ToString());
  }
  return wh;
}

Status WriteSnapshotFile(const Warehouse& wh, const std::string& path,
                         bool sync) {
  DDGMS_FAULT_POINT("snapshot.write");
  return WriteFileDurable(path, EncodeSnapshot(wh), sync);
}

Result<Warehouse> ReadSnapshotFile(const std::string& path) {
  DDGMS_FAULT_POINT("snapshot.read");
  DDGMS_ASSIGN_OR_RETURN(std::string bytes, ReadFileBinary(path));
  return DecodeSnapshot(bytes);
}

}  // namespace ddgms::warehouse
