"""Byte-for-byte pins of the CLI's printed reports.

Each case records the SHA-256 of stdout and of stderr and the exit code.
The kernels cover a forwarded store (example), a carrier-less array (out
of fir), an exact classic-row match (mat) and a classic-row mismatch (imi).
A refactor of the presentation layer must leave every digest unchanged;
a deliberate output change must update the digest here and say why.
The ``--dump-dot`` graphs of example and fir are pinned the same way;
fir's ``out`` costs 0 cycles under one register per array, so its
graphs show a latency that the allocation sets.
"""

import hashlib

import pytest

from sralloc.cli import main

_FORMATS = ("table", "json", "csv")

CASES = [
    case
    for kernel in ("example", "fir", "mat", "imi")
    for fmt in _FORMATS
    for case in (
        f"analyze {kernel} --format {fmt}",
        f"allocate {kernel} --format {fmt}",
        f"simulate {kernel} --alg all --format {fmt}",
        f"compare {kernel} --policy element-level --format {fmt}",
        f"compare {kernel} --policy staging-only --format {fmt}",
    )
] + [f"compare all --format {fmt}" for fmt in _FORMATS] + [
    "allocate example --nr 3",
    "analyze missing.knl",
    "verify example --cap 10",
    "verify mat",
]

EMPTY = hashlib.sha256(b"").hexdigest()

#: argv -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "analyze example --format table":
        (0, "9ca523261dab18267da088f726f54ece9bc8233796f566e200ed74586f24e489",
         EMPTY),
    "allocate example --format table":
        (0, "a45aa20cdf5e1308fa31e7d899f08ea23cfe00e9b7a91684b72c74984a714601",
         EMPTY),
    "simulate example --alg all --format table":
        (0, "36bbd9a97ffa6a9927449df611b7d1be134a2bef0c28c0761bc6bf9d3467f10b",
         EMPTY),
    "compare example --policy element-level --format table":
        (0, "f0560519dad4d524182987555f6c0c9f88a06a0564c18a82090311ab6e5c6d84",
         EMPTY),
    "compare example --policy staging-only --format table":
        (0, "d60aacb4ff42c9debc41774052ec702752b471caf70c26878d8eee120e2d9af4",
         EMPTY),
    "analyze example --format json":
        (0, "73fc9abd69cdfae1d201a37620f9251c827afe6831b3b4b079afc570cf1096be",
         EMPTY),
    "allocate example --format json":
        (0, "462fc710bf474948ad7d477e4d2377a6cb41bdbc4ef50ee891ed971e78346d35",
         EMPTY),
    "simulate example --alg all --format json":
        (0, "e975d49b79e874cd6032ac07049de5cabd5c60226198bf856c70841288d16b0b",
         EMPTY),
    "compare example --policy element-level --format json":
        (0, "2afb37ec2865b59f04c195aa85876716278c919a2064fde5b11d70a1f333f8d1",
         EMPTY),
    "compare example --policy staging-only --format json":
        (0, "d7134ddf7917e2c27618ea4271d389323f5dc764c3a83ffa3231dbbcecf4a369",
         EMPTY),
    "analyze example --format csv":
        (0, "34bed4dd384a607e1976ebeabffd9d6c192d9fdbb0113471159e93b31c06060c",
         EMPTY),
    "allocate example --format csv":
        (0, "fbe2f408373dd2c99706bd7f1b884f22cc1c792242428f8279c6e4d5178e828b",
         EMPTY),
    "simulate example --alg all --format csv":
        (0, "d7d56eaec72fcd4377b841849d924289bd25acca495c4b7e5c161d7aea1ca055",
         EMPTY),
    "compare example --policy element-level --format csv":
        (0, "763e251daf9d29eb9358952a0d1fcc3e3e12a5fd4381b8e11c55d788d91dc2ce",
         EMPTY),
    "compare example --policy staging-only --format csv":
        (0, "c006c1c8408502aeea0fbcc991c929e0238c4b73acc56154d9472bc80937037b",
         EMPTY),
    "analyze fir --format table":
        (0, "9037706e88e813bdcea4ae36887fdc1604da6c9ae9b95d67f55265c39fff9e51",
         EMPTY),
    "allocate fir --format table":
        (0, "73a4cb4e69dc418c5d93aa33b4f6f8c336a1c134a9fae24af2034d87848824b8",
         EMPTY),
    "simulate fir --alg all --format table":
        (0, "0156c4fa263d0f867a44f1b5b7c73bc235a4d044d98cb5edfb629a06c9b1fbf9",
         EMPTY),
    "compare fir --policy element-level --format table":
        (0, "e29469b9ed5522829184ca04b023e1a316f17155bc77f7873d5c007ed2c3eea3",
         EMPTY),
    "compare fir --policy staging-only --format table":
        (0, "93c26abd55b9215bdabd2a7dc8faecfe8bb4fd84db076d00a51b31cb63afc7fb",
         EMPTY),
    "analyze fir --format json":
        (0, "737476f506cb87acdede2eb781c30a9f626f8f9a0f8059b9cb535f83fd36b5e0",
         EMPTY),
    "allocate fir --format json":
        (0, "6f433d91852da68640c271ff2720e64611c6fda33ae5462956a42abd46223858",
         EMPTY),
    "simulate fir --alg all --format json":
        (0, "39a356225539f6e6fb407b01fbacd21a46fb95d2601894684d6e85e3574f3dff",
         EMPTY),
    "compare fir --policy element-level --format json":
        (0, "34872f7be99716d01437b7a5ee9bc3ab3734675d019f5546926af1326f563595",
         EMPTY),
    "compare fir --policy staging-only --format json":
        (0, "0ab9af08e69f91d65c829b122060b370bd2bdb6a38ce9eb8f11c8925a59fd0bb",
         EMPTY),
    "analyze fir --format csv":
        (0, "429e804092526c3b11cb3747fee1a0016cf35a707bc86c203cc5fb5af8770bf2",
         EMPTY),
    "allocate fir --format csv":
        (0, "e237a69c9eb018437f326ce14ac41f2834997a52ec879469ab792d63f8439a9f",
         EMPTY),
    "simulate fir --alg all --format csv":
        (0, "a8606ad729da23160785c0ce45e15e10a80200ec80c8fa031dc374ea162c2f34",
         EMPTY),
    "compare fir --policy element-level --format csv":
        (0, "9fc3ffeb7f2c8762144bd2424805a2f13a06b1f12dc6d9b2a56aa915725c6a9f",
         EMPTY),
    "compare fir --policy staging-only --format csv":
        (0, "93f6a99c01b1e5ae91df1f8b20c6959d754e0ab80a9f3db04013bc0e5cb22419",
         EMPTY),
    "analyze mat --format table":
        (0, "51e3b496cf63aef9bf2ab7a146b6d8f4ad1608fbe6df8119d79d490720319853",
         EMPTY),
    "allocate mat --format table":
        (0, "2d4f679a71246c9aaae14cb30fcc532c5519bcebdcddceda70f510f56535d75f",
         EMPTY),
    "simulate mat --alg all --format table":
        (0, "50106712ee93ae39033ec8cf840418d6ad05a0ab48c672bac1b25e8d2b0cfe65",
         EMPTY),
    "compare mat --policy element-level --format table":
        (0, "0b4bd6f42b6eb0edfd53d8b6ff24192bf7228a1c1574f6e9a0e443a82368d447",
         EMPTY),
    "compare mat --policy staging-only --format table":
        (0, "b541abe5c88d784ffcea5b78453e182aa4c5c05dbea41815df3089af837be5cd",
         EMPTY),
    "analyze mat --format json":
        (0, "b77ada95e16962068fed5afdc427402b85ca6d358911dcb104ab7a968d178a11",
         EMPTY),
    "allocate mat --format json":
        (0, "418fd2817ca2614ff2a9a0dac8ad885510ee659cc5630b812dda3e3f3e91fb42",
         EMPTY),
    "simulate mat --alg all --format json":
        (0, "4826b8ceda0a677544bf391315bef4c1f75fb048ad9afc4bf46fd87976cfc4c2",
         EMPTY),
    "compare mat --policy element-level --format json":
        (0, "514be3ccea4f603ac610529a62e923258d0faee2ad3aaf14ee9cd6882a4ee1ce",
         EMPTY),
    "compare mat --policy staging-only --format json":
        (0, "97f6d3c8fe41057cf1ae6e918f0b5eace2708dcdc38e7679403a19eb2d4125c5",
         EMPTY),
    "analyze mat --format csv":
        (0, "c4e5223745c7d5811e7feb9af988a527c8bf7531c4e59c52b8e5aa3bde8d18eb",
         EMPTY),
    "allocate mat --format csv":
        (0, "b28e9810d0420fd42980ac2603d0c7d1acf0b3ea37d680c31e683c77849f1050",
         EMPTY),
    "simulate mat --alg all --format csv":
        (0, "90863530c0835b8d99a1761467e11100d960e77c8c5c1c38290f6245ab80f810",
         EMPTY),
    "compare mat --policy element-level --format csv":
        (0, "d6774a71672a6149438559fe6f49618f4502e6c9cd65bd94cb8863c1ab54b0fa",
         EMPTY),
    "compare mat --policy staging-only --format csv":
        (0, "94eb45bfd56e71b95193226b7c60fe056cf49d7214ee70391efc5b47e5a13327",
         EMPTY),
    "analyze imi --format table":
        (0, "fd4b1a6f9e957824f08ea0ae26ae7713b73299e3597596bac6b1c2bd80b70900",
         EMPTY),
    "allocate imi --format table":
        (0, "e37d105194c9ba88112141ebeb86ce70b9581dd708166face77b0f5e24631455",
         EMPTY),
    "simulate imi --alg all --format table":
        (0, "0cd2d05f3bb06a0979c0dd5af62348aeef0406082c85f1944c1e59cb8eb938a5",
         EMPTY),
    "compare imi --policy element-level --format table":
        (0, "09f6950ebf599748f481895037cf5628441b2270e0f0b08138b5b38bbb7759de",
         EMPTY),
    "compare imi --policy staging-only --format table":
        (0, "cca62304d48da7ed666412dea838e0622a8edd163de7d975b5d894579d348662",
         EMPTY),
    "analyze imi --format json":
        (0, "e76342f3d0e5f1813568a5c35c1b02bca5eb42903b8359dfc18f184d284d8558",
         EMPTY),
    "allocate imi --format json":
        (0, "b6d628eeffe5d3d33be8af95fd1c2229cb7bb57d9795ac172b6d0fdce9f7806c",
         EMPTY),
    "simulate imi --alg all --format json":
        (0, "376a67181d260d9912c3054d4f91af7cacac45051b096fd35d8edd728c047959",
         EMPTY),
    "compare imi --policy element-level --format json":
        (0, "d323ed814c14c8d235c0141d52573fc17d0b83df386f5b1ee8531bc50c004d33",
         EMPTY),
    "compare imi --policy staging-only --format json":
        (0, "6eb8dabd776e61be25eaeefadfbcbf5e2f246bbb320ad873a93e023e4c1b9ae8",
         EMPTY),
    "analyze imi --format csv":
        (0, "43b1c25d4e8777874bcc50d24cf21bccda03b2e0f304fa9bfc3b98c3e5b6564c",
         EMPTY),
    "allocate imi --format csv":
        (0, "52fc0f82ad7e63988891fcc6deb52e57b1728b96a18e71ac1fc40cce85b0d1c5",
         EMPTY),
    "simulate imi --alg all --format csv":
        (0, "ab0d99a6b7ba519c783181a3910f9dff99135c917dd8e604941272251fac609a",
         EMPTY),
    "compare imi --policy element-level --format csv":
        (0, "87ecfce630f4c77cb3e7cfc7b4470990ee585af29be86aceddf4726743c46fef",
         EMPTY),
    "compare imi --policy staging-only --format csv":
        (0, "7c75790c2ba805c9cab6daa1d884c5e16ad169bc9a38740a854ef4d11d27e28b",
         EMPTY),
    "compare all --format table":
        (0, "ed9e9796137e0f025ff43d395a734edcbfb2837e0c6c5d8269120f9e0b39aee4",
         EMPTY),
    "compare all --format json":
        (0, "72f3de1babfc86781baa0573fdb2105cd3ea07c3dd680ead29c9e90533c58bba",
         EMPTY),
    "compare all --format csv":
        (0, "b564bf206b2796bfd19a0bc79cd58b5ea70f46a827e693c2df85ecf120d4d590",
         EMPTY),
    "allocate example --nr 3":
        (1, EMPTY,
         "ac5952bceadeb9e6c306a083aae1e622534e605d14e4a56ce967f129b1515113"),
    "analyze missing.knl":
        (2, EMPTY,
         "4f5b526521fd65187c3d54252ce8ac58f0495f456cf23009ebb86b67c286af91"),
    "verify example --cap 10":
        (3, EMPTY,
         "a518dfca05eab54224b50f9d784466217aba6d5b61311a96be69bf0cd8505a4a"),
    "verify mat":
        (0, "f09a2fed6d5ec0ff4e38f17de57a1e02d64fbb3ee6ba80fc6616bb1e11c98edf",
         EMPTY),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", CASES)
def test_cli_output_pinned(argv, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, _sha(out), _sha(err)) == GOLDEN[argv]


#: kernel -> (sha256 of PREFIX.dfg.dot, sha256 of PREFIX.cg.dot)
DOT_GOLDEN = {
    "example": ("a4b5858fafd43f3ccd3ab57584a1cbf18bcb717af64622e7da1be75c270fc666",
                "d997d4af1e9b604df040f80a3283f11c71ef5302b7853462c6a6fc530d838eb3"),
    "fir": ("0a1491d3085b6d9bb67f7a1ada7f0d3bbc4fe06b6d18ea83acf086a2e8c5beac",
            "963bf045499fca39a8615999d7fbcb48452d60767bd29212df7b9be13c295158"),
}


@pytest.mark.parametrize("kernel", sorted(DOT_GOLDEN))
def test_dump_dot_pinned(kernel, tmp_path, capsys):
    prefix = tmp_path / kernel
    assert main(["allocate", kernel, "--dump-dot", str(prefix)]) == 0
    capsys.readouterr()
    dots = tuple(_sha((tmp_path / f"{kernel}.{title}.dot").read_text(encoding="utf-8"))
                 for title in ("dfg", "cg"))
    assert dots == DOT_GOLDEN[kernel]
