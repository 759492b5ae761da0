/**
 * @file
 * Binary wire codec: explicit little-endian primitives over a byte
 * string.
 *
 * WireWriter appends; WireReader consumes with *sticky failure*: the
 * first short read marks the reader failed, every later read returns a
 * zero value, and ok() reports the verdict once at the end. Decoders
 * over untrusted bytes (anything that arrived on a socket) therefore
 * never branch mid-parse on malformed input — they read the whole
 * layout, then check ok() plus their own semantic invariants. Doubles
 * travel as IEEE-754 bit patterns, so values round-trip bit-exactly —
 * the cluster's results must be indistinguishable from local ones.
 */

#ifndef PHOTOFOURIER_NET_WIRE_HH
#define PHOTOFOURIER_NET_WIRE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace photofourier {
namespace net {

/** Append-only little-endian encoder. */
class WireWriter
{
  public:
    void u8(uint8_t v);
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void f64(double v);

    /** u32 byte length + raw bytes. */
    void str(std::string_view v);

    /** u32 element count + packed f64s. */
    void f64vec(const std::vector<double> &v);

    /** u32 element count + packed u64s. */
    void u64vec(const std::vector<uint64_t> &v);

    /** Move the encoded bytes out (writer becomes empty). */
    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Sticky-failure little-endian decoder over a borrowed buffer. */
class WireReader
{
  public:
    explicit WireReader(std::string_view data) : data_(data) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    double f64();
    std::string str();
    std::vector<double> f64vec();
    std::vector<uint64_t> u64vec();

    /** False once any read ran past the end. */
    bool ok() const { return ok_; }

    /** True when every byte was consumed (and no read failed). */
    bool atEnd() const { return ok_ && pos_ == data_.size(); }

  private:
    /** Claim n bytes; nullptr (and sticky failure) when short. */
    const unsigned char *claim(size_t n);

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace net
} // namespace photofourier

#endif // PHOTOFOURIER_NET_WIRE_HH
