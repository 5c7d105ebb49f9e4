#include "core/paged_image.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

namespace smarts::core {

/**
 * @p src holds host-order words, or little-endian bytes when
 * @p FromLittleEndian (possibly unaligned: they are only ever copied
 * and compared as bytes).
 */
template <bool FromLittleEndian>
void
PagedImage::rebuild(std::size_t count, const std::uint8_t *src)
{
    const std::size_t oldWords = words_;
    pages_.resize((count + kPageWords - 1) / kPageWords);
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const std::size_t n = pageWords(p, count);
        const std::uint8_t *from = src + p * kPageWords * 4;
        std::uint32_t scratch[kPageWords];
        if constexpr (FromLittleEndian && util::kBigEndianHost) {
            std::memcpy(scratch, from, n * 4);
            util::swapLittleEndian<std::uint32_t>(
                reinterpret_cast<std::uint8_t *>(scratch), n);
            from = reinterpret_cast<const std::uint8_t *>(scratch);
        }
        Page &held = pages_[p];
        if (held && pageWords(p, oldWords) == n &&
            std::memcmp(held.get(), from, n * 4) == 0)
            continue;
        std::shared_ptr<std::uint32_t[]> fresh(new std::uint32_t[n]);
        std::memcpy(fresh.get(), from, n * 4);
        held = std::move(fresh);
    }
    words_ = count;
}

void
PagedImage::assign(const std::uint32_t *words, std::size_t count)
{
    rebuild<false>(count, reinterpret_cast<const std::uint8_t *>(words));
}

void
PagedImage::read(util::BinaryReader &in)
{
    const util::ByteView bytes = in.wordsView<std::uint32_t>();
    if (in.failed()) {
        words_ = 0;
        pages_.clear();
        return;
    }
    rebuild<true>(bytes.size / 4, bytes.data);
}

void
PagedImage::copyTo(std::uint32_t *out) const
{
    for (std::size_t p = 0; p < pages_.size(); ++p)
        std::memcpy(out + p * kPageWords, pages_[p].get(),
                    pageWords(p, words_) * 4);
}

std::size_t
PagedImage::residentBytes(const std::vector<const PagedImage *> &images)
{
    std::vector<std::pair<const std::uint32_t *, std::size_t>> pages;
    for (const PagedImage *image : images)
        for (std::size_t p = 0; p < image->pages_.size(); ++p)
            pages.emplace_back(image->pages_[p].get(),
                               pageWords(p, image->words_) * 4);
    std::sort(pages.begin(), pages.end(),
              [](const auto &a, const auto &b) {
                  return std::less<const std::uint32_t *>()(a.first,
                                                           b.first);
              });
    std::size_t total = 0;
    for (std::size_t i = 0; i < pages.size(); ++i)
        if (i == 0 || pages[i].first != pages[i - 1].first)
            total += pages[i].second;
    return total;
}

} // namespace smarts::core
