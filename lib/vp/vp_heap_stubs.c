/* Keep the C heap under the SoC's RAM buffers resident.

   Each platform's two 1 MiB RAM buffers are malloc blocks. With glibc's
   defaults they are either freshly mmapped or carved from a brk heap whose
   free top is handed back to the kernel, so the next platform faults its
   pages in again, and which of the two happens depends on the heap's
   layout (docs/perf.md, "Large heap blocks and page faults"). Raising both
   thresholds serves the buffers from the brk heap and keeps freed ones
   there for reuse. Setting either threshold turns off glibc's dynamic
   adjustment of both, so both are set. Other C libraries are left alone. */

#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

CAMLprim value vp_keep_heap_resident(value unit)
{
  (void)unit;
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
#endif
  return Val_unit;
}
