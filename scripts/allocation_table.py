#!/usr/bin/env python3
"""The corpus allocation table (``sralloc compare all``, which marks rows that
depart from the classic ones), the required-register column and CORPUS_NOTES."""

import sralloc as sa
from sralloc import cli


def main() -> int:
    code = cli.main(["compare", "all"])
    print("required registers, arrays in source order")
    for name in sa.KERNEL_NAMES:
        kernel = sa.bundled_kernel(name)
        reuse = sa.analyze_all(kernel)
        print(f"  {name}: {', '.join(str(reuse[a].required_regs) for a in kernel.arrays)}")
    print("\nnotes:")
    for name, note in sa.CORPUS_NOTES.items():
        print(f"  {name}: {note}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
