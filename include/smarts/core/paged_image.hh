/**
 * @file
 * PagedImage: a word image held as shared, immutable 4 KiB pages —
 * the in-memory form of a snapshot's data image (ArchState::data).
 *
 * Consecutive snapshots of one program usually differ in a few
 * pages, so an image is assigned, not copied: assign() and read()
 * keep every page whose words are unchanged (one page-sized memcmp)
 * and allocate only the pages that differ. A library of hundreds of
 * live-points then holds each distinct page once, and copying an
 * image is one reference-count bump per page. Pages are never
 * written after they are built, so a page shared by several images
 * cannot change under any of them.
 *
 * The serialized form is exactly BinaryWriter::vecU32 of the words —
 * a u64 word count, then the little-endian words — so every format
 * that embeds an ArchState reads and writes the same bytes as when
 * the image was one flat vector.
 */

#ifndef SMARTS_CORE_PAGED_IMAGE_HH
#define SMARTS_CORE_PAGED_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/binary_io.hh"

namespace smarts::core {

class PagedImage
{
  public:
    /** Words per page: 4 KiB. The last page may be partial. */
    static constexpr std::size_t kPageWords = 1024;

    /** Words in the image. */
    std::size_t
    size() const
    {
        return words_;
    }

    bool
    empty() const
    {
        return words_ == 0;
    }

    std::size_t
    pageCount() const
    {
        return pages_.size();
    }

    /**
     * Page @p p's words (its identity too: two images share the page
     * iff the pointers are equal). Valid while some image holds it.
     */
    const std::uint32_t *
    page(std::size_t p) const
    {
        return pages_[p].get();
    }

    /**
     * Make the image the @p count words at @p words, keeping each
     * held page whose words are unchanged and allocating the rest.
     */
    void assign(const std::uint32_t *words, std::size_t count);

    /** Copy the image's size() words to @p out. */
    void copyTo(std::uint32_t *out) const;

    /**
     * Bytes held by the distinct pages of @p images: a page shared by
     * several images counts once — what those images keep resident.
     */
    static std::size_t
    residentBytes(const std::vector<const PagedImage *> &images);

    /** BinaryWriter::vecU32 of the words, byte for byte. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(words_);
        for (std::size_t p = 0; p < pages_.size(); ++p)
            out.words(pages_[p].get(), pageWords(p, words_));
    }

    /**
     * Inverse of write(), under assign()'s rule: a page whose decoded
     * words equal the page already held at its index is kept. A
     * short or hostile payload fails @p in and leaves the image
     * empty.
     */
    void read(util::BinaryReader &in);

  private:
    using Page = std::shared_ptr<const std::uint32_t[]>;

    /** Words on page @p p of a @p words-word image. */
    static std::size_t
    pageWords(std::size_t p, std::size_t words)
    {
        const std::size_t left = words - p * kPageWords;
        return left < kPageWords ? left : kPageWords;
    }

    /**
     * The one rule under assign() and read(): resize to @p count
     * words taken from @p src, page by page, keeping each held page
     * whose words are unchanged and allocating the rest.
     */
    template <bool FromLittleEndian>
    void rebuild(std::size_t count, const std::uint8_t *src);

    std::size_t words_ = 0;
    std::vector<Page> pages_;
};

} // namespace smarts::core

#endif // SMARTS_CORE_PAGED_IMAGE_HH
