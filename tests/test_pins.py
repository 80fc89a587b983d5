"""Byte-level pins of closure output and of factorization words.

Each ``PINS`` entry holds the sha256 of the ``txt`` export, of the ``jsonl``
export, and of a listing with one ``<element> <word>`` line per element
(the word as comma-separated generator indices), for the closure of the
standard generators.  The entries up to n = 9 were taken before the
image-array kernel; opdi 11, odi 12 and mdi 10 are the benchmark's
enumerate sizes, whose exports ``bench/jobs.py`` also pins.  Gzip exports
are pinned on their decompressed bytes, plus a zero header timestamp.
Each ``GZIP_PINS`` entry, at the benchmark's sizes, also pins the
compressed streams of the ``txt`` and ``jsonl`` exports, taken with zlib
1.2.13; another deflate build may compress the same bytes differently.

Each ``WORD_PINS`` entry holds the sha256 of a listing with one
``<element> <word>`` line per member of the kind, in canonical order, where
the word is ``factorize``'s letters joined by commas.  Each
``REFLECTION_WORD_PINS`` entry holds the sha256 of a listing with one
``<kind> <element> <word>`` line per kind containing the restriction of a
reflection to a pair of points whose first extension is that reflection,
reflections in order of exponent, pairs lexicographically, kinds in
``KINDS`` order.

Each ``J_PARTITION_PINS`` entry holds the sha256 of ``j_partition`` over
the kind's members, one line per class in the returned order, elements
as text separated by spaces.  Each ``J_RELATED_PINS`` entry holds the
sha256 of ``j_related``'s answers, one ``0``/``1`` character per ordered
pair of partial identities of 1..n, both taken in order of size, then
lexicographically.

Each ``GREEN_PINS`` entry holds the sha256 of ``green_structural`` over
the kind's members: one ``<relation> <elements>`` line per class, the L,
R, H and D classes in that order, each in the returned order, elements
as text separated by spaces.

Each ``EXTENSION_PINS`` entry holds the sha256 of a listing with one
``<element> <extensions> <in_di> <in_odi> <in_mdi> <in_opdi>`` line per
element, taken from ``classify``: the extensions as text joined by commas
(``-`` when there are none) and each flag as ``0``/``1``.  For n <= 6 the
elements are every partial permutation, so maps that are not isometries
are covered; above that they are the partial isometries.  Elements are in
the order their generator yields them.

``ELEMENT_PIN`` is the sha256 of one ``<repr> <str>`` line per element of
``_element_samples()``: every member of the opdi closure at n = 5 in
canonical order, then maps at n = 254 and 255, the two sides of the byte
encoding's cut.  ``SORT_PIN`` is the sha256 of the ``repr`` lines of
``sorted()`` over a seeded shuffle of opdi members at n = 3..6 and those
samples, which pins the ``(n, pairs)`` order across mixed n.

``GENERATOR_SET_PIN`` is the sha256 of one ``<kind> <n> <name> <element>``
line per letter of ``standard_generators(kind, n)``, letters in set order,
for the four kinds at n = 3..9, 254 and 255.

``CERTIFICATE_PIN`` is the sha256 of the rank certificates' requirements:
a header line per case, then one ``<description> <satisfied> <witness>``
line per requirement, each field as ``repr``.  The cases are
``lower_bound_certificate`` of the standard sets at n = 4..12; at n = 4..8
also of seeded reorderings of those sets and of supersets with extra
members; and ``gap_requirements`` of seeded random member lists, some of
which miss a gap.

``SURFACE_PIN`` is the sha256 of the package's public surface: one
``<name> <module> <qualname>`` line per entry of ``cycleiso.__all__``,
sorted, with ``repr(value)`` in place of module and qualname for the
constants, which have no qualname.

``CLI_PIN`` is the sha256 of one ``<argv> <exit code> <stdout> <stderr>
<file>`` line per row of ``_CLI_ARGVS``, each field as ``repr``, where
``<file>`` is what ``--out`` wrote (decompressed when gzipped), or
``None``.  Timings (``(0.00s)``, ``"seconds": 0.0``) and the temporary
directory are masked, and a usage error that argparse reports keeps only
its exit code and the word ``usage``, since its text wraps with the
terminal and varies across Python versions.  ``verify`` runs at
``--max-n 7``, the smallest cap at which criterion 5's random sweep runs.
Each ``GREENS_CLI_PINS`` entry is the same listing for ``greens`` at one n
past ``CLI_PIN``'s sizes: the four kinds, ``di`` last, each relation in
``JLRH`` order, each as text and then as ``--json``.
"""

import gzip
import hashlib
import random
import re
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

import cycleiso
from cycleiso import (
    KINDS,
    DihedralElement,
    PartialPerm,
    classify,
    close,
    empty_map,
    export_bytes,
    factorize,
    gap_requirements,
    green_structural,
    identity,
    identity_on,
    j_partition,
    j_related,
    lower_bound_certificate,
    standard_generators,
    to_partial_perm,
)
from cycleiso.brute_force import (
    all_partial_perms,
    dihedral_restrictions,
    kind_elements,
    kind_monoid,
)
from cycleiso.cli import main

PINS = {
    ("odi", 3): (
        "d5048add094f0688cba27df0a93d82cb20fd12c3444f68f3206ae878692dbaf1",
        "a7946e4018ca6d001c4d66d4fd32568c21c6dad33496cfa9e9f2a2af4cad7f54",
        "61dee369f49b8dce5ba4d28919386ad2c02dda4264f5746d82740948e2823ab2",
    ),
    ("odi", 4): (
        "c20a85d70175d895ba47fbdbe2016d938679f2bd6ae9b01ac57aa1f102788794",
        "03c55f4a34e5855ab4a246d59c8a0514ad6c8b51efbfe46335f3f4d77cb6956d",
        "5ffda614fe45cb97ad5c9013dcaac6e07a32ce15b49a881c779037adda0f51a6",
    ),
    ("odi", 5): (
        "bc8fc75dd703cc00dafccb5e34a927473960a7f230536f213a70f00852e533ee",
        "74e0ff659674639c7b453012aa57e79354f02909dd42aff0f37409209f04efbc",
        "39844e7e9bff3d2f191d7c8d49c0fc5554f4916c793e5485a226a780808ebf89",
    ),
    ("odi", 6): (
        "724d352fe20b22823d5f0b388eb3045ce0b80cda2faea6da29854c492725d1b8",
        "eb5da489793b4325bfa49ec495bdf8db80f303deaa39488c2bc144e2391a8ced",
        "821b20379f044fe950985005d56372075136043b1024607e8ede3fd16612bbe1",
    ),
    ("odi", 7): (
        "0770e8fe516dd332788de1378c3f25d2f7d4a83ac5140a713084b4842df9952c",
        "d8c555331d6faa5c03a831f34c25b01d1cc862b275ea0903a5d1462367baf1e8",
        "01b6884e796e704503ba3a26b488b1b3d031120406b3dacac22dcd5596c38dfc",
    ),
    ("odi", 8): (
        "b56533b3359b5862b7b0e460ecda7cc8ba7826b5c6bf7f37c50f9f5e3555c444",
        "166b8269b9be9e779b17322b4d51f9b5099070a0e4c329650c362c3e5168b27a",
        "2686cd0abeb950b18e05874ef486041aca9a2a201641605498a098cb4af6907e",
    ),
    ("odi", 9): (
        "7ec4744e4db0da06bde5318e8b0db4519b51a6bf3277cb2b587981d5de545752",
        "b74b26ec5dee6f1814b321ffda1061ee5081841781d8bb0a123a1433c2b8953b",
        "3bd1993ac153101f2b75f9963daadd405a6e9578d7fe2b71577da8fb4a047536",
    ),
    ("mdi", 3): (
        "5b948c70ab4e629bef2fd54ec9106c40b8ee711a6747b1300bb6741b9b60b46f",
        "7b421b7bd13257d49092a4f3afaa73fea46c233fa3f15db418d8dca6ed456ab3",
        "6f392e170d97a3587ad90c18275ee0fbc4a5529cf115683ab56ea05790679cb8",
    ),
    ("mdi", 4): (
        "9365662238fcc3cceab60c2d64223318baa3ade1fd694d3165e6daee816ef5b7",
        "9d30cf3c8162178ef73d9fc8a38d44a4ef88af5d1931f5f1b43e6cccd18c7b95",
        "a54ad8690e541a7e22d4f82d33a7a86b9411e06a77a98c32640398d0cf956bea",
    ),
    ("mdi", 5): (
        "ef60c28f48a25a95c6c3e6af2362047f3a9f4f5014baba3a88a505eeda6bf8a0",
        "e8b1b8d99980fea30b26d113afe1e2c806d21e6e3f5b441f487b4d23515fd2a0",
        "3d6fd4feea148f4b0039911d9131dec7364eb8e37bec41c869067e54eaf01f8c",
    ),
    ("mdi", 6): (
        "b66d261e83f6087becd71b4927c496c79072eb2338f2e2215d2cde738219fe67",
        "fcf01ae94b6c728e7520a37f78be8392be7e151379dec1faaa36c15be7051f95",
        "29ae51d98c6da02045fc450b62907d44a66d160b276f6d80e4d2d547bbd3d299",
    ),
    ("mdi", 7): (
        "a1cc1a1ac33540653e7c6b233e74bd719a15f7cbc326371f4c3621293b3e8f13",
        "7fbc6dd461718510b81afd5a323ff075a83194a77ec7bccd880b2321817dd875",
        "032dfc4d219a33592fdd5aef9e076c00e279cc63382eb9271ca66bf632845e87",
    ),
    ("mdi", 8): (
        "cf7378ea8067d3c7461a045f6174de1f63a11b1514b1b0d07a29543732a59c77",
        "b401ad7c4b5644a107550d14ae62fcb3d2ae436244e7d4a7be2e65cb7ecd9a58",
        "3d4d3ba436a19a915937d4e58f32670b60eaefa87821ce22e92751573b7bde50",
    ),
    ("mdi", 9): (
        "15ed1bfae2ba3866ab885318295379cc3ef3adfdccfcb51e5a487d694d1b87cc",
        "3a169229fc47813591a6af5aac94e20fd6773bf93ff784e580e367c977d2478c",
        "a5c6dd1964770b5b545bdbd23cda782c25b4911b7e064daa0911d1a8e42d0e8c",
    ),
    ("opdi", 3): (
        "1aab9ba6487cc42da208acea28468e98fefd185f6b2f99a4795cea2ee5710061",
        "1ff12f478dd25a2ab3c697e3809c4106bf13d77f34b98d1cc909803084b5bd94",
        "3de7a5a9f6d3557e9b20d97cc4e1c20acbbb3083a30658eb7efcb16356080924",
    ),
    ("opdi", 4): (
        "7f298c24e07eacb801dd9de67cdfe78d14e8d41f29f87b22cfa0011535152965",
        "50a79fd6028f40132b1799ea8c72b128db49a792a0b5e82ab8ddbe8173abb2a4",
        "3ede9bbc4471864686754fd777a150b68f48762edec106a7d56ea773d0507895",
    ),
    ("opdi", 5): (
        "f0230b1a2641d0a20a9a09458726944cc85e041cb954e4fda0f40d444a422f62",
        "3a401999529997b5d5ad4674acc16a65f7b3745c86affe280a6fed821657dd86",
        "036501b5d32a2e55dddc417bf1153eb13c020a1e29c1cc6cfbab9fe479b2bfc6",
    ),
    ("opdi", 6): (
        "aad0652ad9a567f422f2f14fa1a5f3491b4b3e7af4936adb6b607436f97410ae",
        "225d6d4cc417c6ddb5eed966cab34ebc44120e040035b0ebe7f53d1682b15060",
        "82da38b8c0f8ea50a2e8a2fb8b56cc10b5e49e7e353cfb625ff761f7b71cdb17",
    ),
    ("opdi", 7): (
        "ee6818d186d9f87803d8f321198ce7718f6be7f35f653c05f691981bf03b3a47",
        "798576c65d74fe2ef4ac37a1df6362812451369e31cf20f3489c74b47e633ccd",
        "43db0c085f314d1bdc385223104cda1d0ab015f09cd779c61330ddf4196d8bb6",
    ),
    ("opdi", 8): (
        "796d678ca4faf74d72c4f37c24b09bda9943252c333e4a91a668adedad512c3b",
        "dc1df17a5ab50f71c5ca615f55207155281c6d53472a8a89e2a9fdbdadeebf20",
        "2ad265e3c2eeb6d93a4ed6d83991a9000f80e07a32031032cc1e91a84e65293e",
    ),
    ("opdi", 9): (
        "311b91472d99ce9a3911b90a4b8e8268d5d205923292eae78d2719baa5267084",
        "09a887c01155a2cb888c9339377e90d6842b0d46758f353df6a25a67c8586a91",
        "77bd546e6e37f1e1d4f2c08369ff1295507c84d88579255569dd32a2423171d3",
    ),
    ("di", 3): (
        "b038e8d638db1675887909971719550492e450aeac99b0129650756d79deffa0",
        "1698b94ef4ecdebdf27b14dbb6de2155e6b9d60fafd2c449a635e8d38b4ad131",
        "9d3a36fac7f657f7c45a768c23086eae19c0962a4da72be9df7f150113c74955",
    ),
    ("di", 4): (
        "1dcd2a1caa3d4d614cbcc93d2c8c5f1a357387da66a100617a79131151389a14",
        "058a6b475553f4dcfe54794ffe5523123bb4232b42f4e30a46d3d1cc0801d5f0",
        "aca11c86d68460b600320f1d1580a1612079174bab4b5b7a2393ff542b93c0d4",
    ),
    ("di", 5): (
        "2567493e0dabe5b837f32f59692a938cdfa2950dff5b98ef0d6d6c9a957c8a69",
        "f6c0e39c4fba4eb9aad1d142a509aae3a6edee10769c34d31d2cd8ec694d9a9b",
        "ad562cf1c9237c01c5f54c2cac99619eadaf9b575a60e400c49b74987a5c6afc",
    ),
    ("di", 6): (
        "65031717355f1b4f9f5acadc6e1082ff90771c694708c7b59392d9da9728d9fa",
        "f656fb7533e7e76c1354581fb6abfef2b07f6b7dc6f87e2ad27456d105bf4771",
        "1e5b7c8e58f5b0711be55197047cd96b0ec05074c06e7c5a9acb5dd6b5e66344",
    ),
    ("di", 7): (
        "3f79ce7332a4010bab377ec5cd8f0d8a9a05d03a0c7300551076afcf8050fab8",
        "7720c3c4a5e5af9748ce1f68e66deadfa1f362286cf507a868bed0390b3e902c",
        "92951b4e6df86882175617a899fbf23df3ea21458eaa396418c000004c43c496",
    ),
    ("di", 8): (
        "816f5caeffb13d50beccff18f3fac6e03cf6336a664e9dafe73048a1c5417232",
        "416c73108f76a8047bfbf9e22ccff9c657324336ee176144fd76e41925e1c85d",
        "d2d7540209abe46bfde1586bbd229238c5f78049ae7fad9987ddcb7097f0d302",
    ),
    ("di", 9): (
        "3662828ad78c7f4fe13091380ccd2dbd6d66770065b699e0cf131e8e92311b40",
        "0625980b0d6c1650b83c470a193945a5a035b856d15f1f14e4d155ec8ce9b054",
        "2e325df8efbe001a7efe31bbd3a79d9feb291447076f5e739e9cc8889687a698",
    ),
    # the benchmark's enumerate sizes
    ("mdi", 10): (
        "f471698e627628e94e32ab761ccc3ef8f74d5feb069da36d100fa09cc15fa40b",
        "86eb214a55e14d0eb99fb75811bf09b03e15d8bdcccba791fcb7ff808fd7cd4a",
        "4904c239bea6fc9d4b2f907d0fe88387ed7cf3e7a1a54921dd1827b638a1a242",
    ),
    ("odi", 12): (
        "9e0f59e7c2f5a2250285d7e6b14a912933164d283994af871f10d33f8c0ba2a9",
        "52869ce5301b84b7f90fe604e5f4f29ebc1264db04992ce2f4de39a2cae1ea3f",
        "9bae5c44168f91ec10403218f8708ae6b99f7a61eec2dbd57a9e90a836595c63",
    ),
    ("opdi", 11): (
        "3925e845001eda0374c8514b0093874c3387a6fb2d5a74d041ae47e9f663eafa",
        "c3275277f18cf3b3332145ab78a8b41b17a643f0aee27c903fff933b0423a0bb",
        "94148ebf5084574e131a1930ce6930a399468dc38121268400f0739d6ca976ab",
    ),
}

GZIP_PINS = {
    ("mdi", 10): (
        "89258ef781f6971b15959c1d6f2c64fd102e17c756912068257b357c4bc9c9f0",
        "416636ff207c27b6ca41fea200d7362a92f3d7b59e0fd3176e388f43a9f66794",
    ),
    ("odi", 12): (
        "b7a1ed1e44c1628c661117d0b0e1467ab714b5c1568f8fd77832d17c866b3275",
        "4cbaac8e13784d158b55694cca29966c90af2076e17dbdf66979b4ced07de0f9",
    ),
    ("opdi", 11): (
        "0d86605dd0db169f816c620d4004d31136bcbbc886c65df475941b48169cfa66",
        "0d5236c19c88f14c67022ecccf1e11af6e72e87ad1f05822b005bd10b7aad696",
    ),
}

WORD_PINS = {
    ("odi", 3): "8bd716ed00c12133a80b81a8c20b3410fa0eb7531a6e432e88fb0921ad5ec6d3",
    ("odi", 4): "a2181fb7880bcc16fe58de7e797d49dbc7b1ee63f20a0874f32f0b0fce2ade97",
    ("odi", 5): "4eed99b26c81591377a80cd2e3bc9c2d15e21fd3cf758aca417ba15fb398546e",
    ("odi", 6): "f8a330d3ee124df255f38a1a5645b26d4e2fe84f842b970f426697015ba8b6a8",
    ("odi", 7): "2c1cd0e9285fc9e81bc8e600da2f6982a2cdd00f9cf1fb5df604a6e7a464d99a",
    ("odi", 8): "4511e845f151cf5f9039c3c69d8a13e8d1fe52eaa8bb673de29b69b513e6808f",
    ("mdi", 3): "985a4bd8760db7a159c12553d818eb097714f25af37bda00bc35ee4893171477",
    ("mdi", 4): "bc72a21fde4a9f83b8c2148da600bb1946ca1b50f7ecd20773b67454c9ef830b",
    ("mdi", 5): "ac42836b0d8d85d53de9f3dee7c621c37c8809b6e934dc61565426753df31e44",
    ("mdi", 6): "e790e53eab8a3b2ec2775f9b2f97c8a404ab5ed2d6b526b8f2d8766bc2194450",
    ("mdi", 7): "3c9624644d11a841901a7d9a21d9ea06c23cd58e3472aa816ab8ad89142b7e16",
    ("mdi", 8): "43c9a6902ee7ea61d34e869a0d57b8ba6f7e72f85887a51c33d0e850b97c7422",
    ("opdi", 3): "57dc37048f5a9ab7636065296df79009444846d60a91ef0b14033f0d9aa70b3a",
    ("opdi", 4): "6a291b4d37d78e3b0c821a3e1761fdc5069df47fef584d9a75385ff3d4c9d07b",
    ("opdi", 5): "efb50fc410ecd9121c5e7922725e08a8b636e5d352bcbfaf41e3eb937ffacfa9",
    ("opdi", 6): "b6992fccc876a6742f8202c22ae6466aa8294662e90db5c7e897f13685f44648",
    ("opdi", 7): "ddf0a9560a25810934b5a19d70d51e459ee6feb3733dec380c243eae8cd64ed8",
    ("opdi", 8): "8040746cea66c1fd0c5a8b8ef715fc4d0c741f0c150b9f90ba1f0911d22e29b1",
}

REFLECTION_WORD_PINS = {
    9: "2956da6e008d784604b38e47b6b2965d470b1d4b21bd03c0705209eed195fdc1",
    10: "eb4625bc015cc16e78b52218855972e928dab92754012d84d4a4aea18a4274f6",
    11: "7bd1867dd29dedd998c5f921622c68a7a0702da5ff1a7a7cdfc134a4d47abfb2",
    12: "48135df75350faac744249700a1c1380aaf6cb7f7b440f06e91710f381054df1",
    13: "e46efd165e3be66ae61f8927f98323306a82623bb6fe1daeef0873c625915148",
    14: "16ced30d7830869ddac09d622422bf215b2bca4a41bf59471096ff9e0e4a0f48",
}

J_PARTITION_PINS = {
    ("odi", 3): "a55baec9749f05d95b063c467ee4dd0227a7cb32618d2ec9d59a5f2299622a6a",
    ("odi", 4): "66ebf2a5997b91be12bc48c32c4fe8d969fd191fc74e161c2919d39ed6881a63",
    ("odi", 5): "b6e71f28370466b702fee04f8b351e93df82181d7d4ee721f3d515c24e150bf5",
    ("odi", 6): "a6c9fd960d07663ffc15fabc9fc05857bdc187abf4e075b2471be736f12e58a4",
    ("odi", 7): "d39d80d5010ee3dd59fc4a10cee1b3f1727d1391669aba69defacac061c117a3",
    ("odi", 8): "d5b4b2c67698424a904348806e9c538ef4d300a43315d543e3c24caf29dcfd6f",
    ("mdi", 3): "1bcc349c1e2e0b5f5b0b0b8ba4444a938488e42f3efb00751929243dc3e19f28",
    ("mdi", 4): "111ea5ba025b570abe4e3962a8e1bff9a1ef745492eb4cb9c0518e8910bccc2c",
    ("mdi", 5): "bd6cc70de629224c52e29ee876c1cc30214a1ac40236d3d81f53de42f4e506b2",
    ("mdi", 6): "20bbbdadcc4fad19b4a789bbcdc51d68543e600de96c10ba6a4569cce1bd5f3e",
    ("mdi", 7): "b96f13943b2ad31f12fdce899b2002c1d20ace2630aa78ba4e1a1b16b49e7475",
    ("mdi", 8): "870b6a6417c53b2e732b4dbf57c2f0008b8c240af3d2bae6bff8f49db69180eb",
    ("opdi", 3): "56b8be7c3c000701f26736f1d09d585b0da3cf325de6deb7007f777295ffa007",
    ("opdi", 4): "89c09b41deed0a0a324f712f9cd950158369c10289083a2d7ebf8249afe5e380",
    ("opdi", 5): "7b8080eddbefdc28b26f6eb0aaf6117dd28a366615336455badeb56bb61bda2c",
    ("opdi", 6): "9b77806f958fa3e026c74509ab95aa96a0059e234406c56d40692b8fb61b48dc",
    ("opdi", 7): "7408d0ca7a2fdd15994aecd9a975794eddf7e6c7bb8338f4a3c90bda68a00b01",
    ("opdi", 8): "9c41c2fe6b6a3eb41e432a6646a96813992bbe50150bda8d084084bc3ec9130d",
}

J_RELATED_PINS = {
    ("odi", 3): "110c37341e164c2e96e0f221fd0d248a8bf7372fb1b30c19a005bbb57ebcc489",
    ("odi", 4): "61e606c7db8bac7123a1451853c83e4f73c3785f5786cf07ac1a217517d04332",
    ("odi", 5): "bba68ecd5d1c9924cb2322f8143762a3b7914486a6b728754900e2287fc065c2",
    ("odi", 6): "badd6d8b4184d0ce1060332a63a4941afcd9a832ca6cbda078741ccf49d0ba24",
    ("odi", 7): "5672c24375395a50164005d9eb297d4ba5a4abb5f60eb1da789d99c23464d3ac",
    ("mdi", 3): "110c37341e164c2e96e0f221fd0d248a8bf7372fb1b30c19a005bbb57ebcc489",
    ("mdi", 4): "a199b4fd96bc8f760e5612e2175b9c12fe5cfea5bd06b6da33100797600ee439",
    ("mdi", 5): "b578e59d6822fe8ad519c59c167050a1b5d162cc2d879581e4516deb5ae89bcd",
    ("mdi", 6): "0cc2fe5c5f9ca9234eb3fe96dcc367d3f4288f165ebd0a61f8dd643358891480",
    ("mdi", 7): "8ec763b0f70dce6078f1beedf8759630f0ca3525dbad2570edb9cdd5f6acb4ac",
    ("opdi", 3): "110c37341e164c2e96e0f221fd0d248a8bf7372fb1b30c19a005bbb57ebcc489",
    ("opdi", 4): "c78b2487f5dddcee19791eda8ae7415b5ce2316674ceff05cd270980de8244ca",
    ("opdi", 5): "6e08114a6c65969e53d27ef1f2d91ba48790d016ed93db1c1baa3ebe6b7141fb",
    ("opdi", 6): "1902bce882a793573247def38d3423b468cef7ae0292dca2d37676bfc72b5423",
    ("opdi", 7): "1589a990eb2a99cbae56119dc79a1292ed203d4fcbfc82f6e053fbec93bddab7",
}

GREEN_PINS = {
    ("odi", 3): "211a3fc321021356322e3edaf3a166263906072629f729f46b111c86b8fbd6cf",
    ("odi", 4): "4e8a0e0224674e9a972bb163208a1726d015f80fc6d3177dc87b4f5912a72f34",
    ("odi", 5): "a15165245a463af72904b564d584044f2ce197d6c6da0c377b103c54396d9e32",
    ("odi", 6): "78c24ddcf794325781de8c65cb9962e5f8d4598867ff7aa55121a387ece77d7c",
    ("odi", 7): "0afca8c0fbc2235f6315ebea0c8d395707dc8ccd0957e1de2835d9c35d20e78a",
    ("odi", 8): "06b7501183933f8a8f6b840617007bf908d048983c91f208a73945d7aeeb54c0",
    ("mdi", 3): "db0343f9ab0622dbf3b0fd8aea8e3476f3cfb4c29d100be0d4ff83085f8c0200",
    ("mdi", 4): "c6ab3f7c2ad1dbbd9dc6592539ec95299c64af3f1e898be7237070f05d05d96d",
    ("mdi", 5): "92aa18ed5ae19cc6f01aaae0488ff91f09fe95e59c620f863568484746a2520c",
    ("mdi", 6): "f8d8994a49cbc3f65d9b9c7c1e9e11414962fa4297dada370c90741091be5591",
    ("mdi", 7): "1107da7376ffe018b197631806fea8361d2ddb50cb638573ed724e87d774185f",
    ("mdi", 8): "1e888b89cf7b9540bf4ea605f09e974adfd6307e437fcfca0dd732bc2766a718",
    ("opdi", 3): "b3168505bac7ea9cd3cada8547e54a30156ead2a45bee71c9ec3994ca83b577c",
    ("opdi", 4): "5a18daa568619e96556cc51d005c74e1dd8a91f3bf7e326b85fd3e8b8f225309",
    ("opdi", 5): "e244ff8fdcfdb9f32fce1c08b39e26fe5e54ff0fd4f5efcc65f6fce0852984ae",
    ("opdi", 6): "ad917651638a12d04c53a48186626825b202a519e46258c9482606ee5e6a7365",
    ("opdi", 7): "5c09aff38f888159c17bd800ef96945f584e1e8331f5172df6608a38fac0ccc5",
    ("opdi", 8): "a22ba37f0d7b057a6a551373baab188eb9a637f321d59b7d97e9e02b8bb8ac18",
    ("di", 3): "75f78ea09f29738d7c3fa762fbb6bb78a9eb261af4514d22db8ea9801a9d004c",
    ("di", 4): "91193e86ed0a5fb35a12803f8ab453a366e03725d2d6f0dc5b2c1c1007539cbe",
    ("di", 5): "80bff58ac44b61438f9d3b19d2c6234d134f89a50565ccf86a191922e4e90e0f",
    ("di", 6): "ff2c1fdf9da74cbffe534112ca141fb856a2bbb6ad973791239faac9e1473a70",
    ("di", 7): "b21fba6639f2504a37ec7eaf8fd30da76bff596e76359f0428425f4ec0c41a4e",
    ("di", 8): "782503bc7abf808c17194ef6b3abbbb53f6193a979d4fe0abcfbd481f26d1da0",
}

EXTENSION_PINS = {
    3: "36a0243a9320b24ae553fd6e95afbfefe21fd57e342f5962ecdcc6c8bb42a334",
    4: "d30676e683200d71f002b39230f4d0533f62da85bab4434666e4bf6cca063d08",
    5: "0164d3966960aa3996591fa930d7508d6ea603cf35065de953e15fcf21091fc5",
    6: "f4b345a0042f5dfd2a0fcb947a1413f07d9f5f756120d0c390d0346080fbe3de",
    7: "5c6b81d40cd63f73c19029593b96c6bb24b7d0b4fc7e194007211c2c36a83923",
    8: "4dfbe2c392b2267ca215bfdfa621fa9207fcb2a1de08195de22509db2977a672",
    9: "17d7794ff1d4ba20e27fa0208f66da9442d413c8fa0087e11f7878bfcfc72334",
    10: "0519b19c41d33e8b3e84875564a6bcf87d7932b87ec25b2d632757884be84cfd",
}

ELEMENT_PIN = "d7870e3fd4b718ebe8f45fe9e96335cc6a50f514aa5df44da62d0b40edf756bb"
SORT_PIN = "a6842c2c3ea0c5e927993f40bb1d7a980bac42c78c7630e0823ef669884e7134"
GENERATOR_SET_PIN = "f79e9bf8c127d675098f09f82dd4766438dddbab49741840c24eb598b847928e"
CERTIFICATE_PIN = "538a904122b5eeca4fcf4417e61f7c917f26bfd0c4906e1b7c73a5da7b5ddfc1"

SURFACE_PIN = "33dfb4403ec8f6ebe236b59d4b79856ff5671dd45f32634e76a62bb7f3fe3982"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _word_listing(m) -> bytes:
    return "".join(
        f"{p} {','.join(map(str, m.words[p]))}\n" for p in m.elements
    ).encode()


@pytest.mark.parametrize("kind,n", sorted(PINS), ids=lambda v: str(v))
def test_closure_output_matches_pin(kind, n):
    txt_pin, jsonl_pin, words_pin = PINS[kind, n]
    m = close(n, standard_generators(kind, n).elements)
    for fmt, pin in (("txt", txt_pin), ("jsonl", jsonl_pin)):
        assert _sha(export_bytes(m, fmt)) == pin
        blob = export_bytes(m, fmt, compress=True)
        assert blob[4:8] == bytes(4)  # gzip MTIME field
        assert _sha(gzip.decompress(blob)) == pin
    assert _sha(_word_listing(m)) == words_pin


@pytest.mark.parametrize("kind,n", sorted(GZIP_PINS), ids=lambda v: str(v))
def test_closure_gzip_streams_match_pin(kind, n):
    m = close(n, standard_generators(kind, n).elements)
    streams = (export_bytes(m, fmt, compress=True) for fmt in ("txt", "jsonl"))
    assert tuple(map(_sha, streams)) == GZIP_PINS[kind, n]


@pytest.mark.parametrize("kind,n", sorted(WORD_PINS), ids=lambda v: str(v))
def test_factorize_words_match_pin(kind, n):
    listing = "".join(
        f"{p} {','.join(factorize(p, kind))}\n" for p in kind_elements(kind, n)
    ).encode()
    assert _sha(listing) == WORD_PINS[kind, n]


@pytest.mark.parametrize("n", sorted(REFLECTION_WORD_PINS))
def test_reflection_piece_words_match_pin(n):
    lines = []
    for k in range(n):
        for pts in combinations(range(1, n + 1), 2):
            p = to_partial_perm(DihedralElement.reflection(n, k), pts)
            report = classify(p)
            if report.extensions[0].j == 0:
                continue
            for kind in KINDS:
                if getattr(report, f"in_{kind}"):
                    lines.append(f"{kind} {p} {','.join(factorize(p, kind))}\n")
    assert _sha("".join(lines).encode()) == REFLECTION_WORD_PINS[n]


@pytest.mark.parametrize("kind,n", sorted(J_PARTITION_PINS), ids=lambda v: str(v))
def test_j_partition_matches_pin(kind, n):
    classes = j_partition(kind_monoid(kind, n), kind)
    listing = "".join(" ".join(map(str, c)) + "\n" for c in classes).encode()
    assert _sha(listing) == J_PARTITION_PINS[kind, n]


@pytest.mark.parametrize("kind,n", sorted(J_RELATED_PINS), ids=lambda v: str(v))
def test_j_related_matches_pin(kind, n):
    points = range(1, n + 1)
    ids = [identity_on(n, s) for k in range(n + 1) for s in combinations(points, k)]
    table = "".join("1" if j_related(a, b, kind) else "0" for a in ids for b in ids)
    assert _sha(table.encode()) == J_RELATED_PINS[kind, n]


@pytest.mark.parametrize("kind,n", sorted(GREEN_PINS), ids=lambda v: str(v))
def test_green_structural_matches_pin(kind, n):
    dec = green_structural(kind_monoid(kind, n))
    relations = (
        ("L", dec.l_classes),
        ("R", dec.r_classes),
        ("H", dec.h_classes),
        ("D", dec.d_classes),
    )
    listing = "".join(
        f"{rel} {' '.join(map(str, c))}\n" for rel, classes in relations for c in classes
    ).encode()
    assert _sha(listing) == GREEN_PINS[kind, n]


@pytest.mark.parametrize("n", sorted(EXTENSION_PINS))
def test_classify_extensions_match_pin(n):
    lines = []
    for p in all_partial_perms(n) if n <= 6 else dihedral_restrictions(n):
        r = classify(p)
        exts = ",".join(map(str, r.extensions)) or "-"
        flags = " ".join(str(int(f)) for f in (r.in_di, r.in_odi, r.in_mdi, r.in_opdi))
        lines.append(f"{p} {exts} {flags}\n")
    assert _sha("".join(lines).encode()) == EXTENSION_PINS[n]


def _element_samples() -> list:
    samples = list(close(5, standard_generators("opdi", 5).elements))
    for n in (254, 255):
        g, e, x1 = standard_generators("opdi", n).elements[:3]
        samples += [
            empty_map(n), identity(n), g, e, x1, g * x1, x1.inverse() * g * g,
            PartialPerm(n, ((1, n),)), PartialPerm(n, ((n, 1),)), PartialPerm(n, ((n - 1, n),)),
            PartialPerm(n, ((1, n), (n, 1))), PartialPerm(n, ((1, 1), (n - 1, n - 1))),
        ]
    return samples


def test_element_repr_and_str_match_pin():
    listing = "".join(f"{p!r} {p}\n" for p in _element_samples())
    assert _sha(listing.encode()) == ELEMENT_PIN


def test_sorted_order_across_sizes_matches_pin():
    mixed = [p for n in range(3, 7) for p in close(n, standard_generators("opdi", n).elements)]
    mixed += _element_samples()[-24:]
    random.Random(0).shuffle(mixed)
    ordered = sorted(mixed)
    assert ordered == sorted(mixed, key=lambda p: (p.n, p.pairs))
    assert _sha("".join(f"{p!r}\n" for p in ordered).encode()) == SORT_PIN


def test_standard_generating_sets_match_pin():
    listing = "".join(
        f"{kind} {n} {name} {p}\n"
        for kind in KINDS + ("di",) for n in [*range(3, 10), 254, 255]
        for name, p in standard_generators(kind, n)
    )
    assert _sha(listing.encode()) == GENERATOR_SET_PIN


def _certificate_listing() -> str:
    lines = []

    def record(header, requirements):
        lines.append(header + "\n")
        lines.extend(f"{r.description!r} {r.satisfied!r} {r.witness!r}\n" for r in requirements)

    for kind in KINDS:
        for n in range(4, 13):
            gens = standard_generators(kind, n).elements
            record(f"{kind} {n} standard", lower_bound_certificate(kind, n, gens).requirements)
            if n > 8:
                continue
            rng = random.Random(100 * n + KINDS.index(kind))
            members = close(n, gens).elements
            for trial in range(3):
                shuffled = rng.sample(gens, len(gens))
                record(f"{kind} {n} reordered {trial}",
                       lower_bound_certificate(kind, n, shuffled).requirements)
                superset = shuffled + rng.sample(members, trial + 1)
                rng.shuffle(superset)
                record(f"{kind} {n} superset {trial}",
                       lower_bound_certificate(kind, n, superset).requirements)
            for trial in range(6):
                sample = rng.sample(members, rng.randrange(1, 2 * n))
                record(f"{kind} {n} sample {trial}", gap_requirements(kind, n, sample))
    return "".join(lines)


def test_rank_certificates_match_pin():
    listing = _certificate_listing()
    # the random samples leave some gap uncovered, so both answers are pinned
    assert " True " in listing and " False " in listing
    assert _sha(listing.encode()) == CERTIFICATE_PIN


def test_elements_refuse_assignment_and_deletion():
    p = PartialPerm.parse("n=5;2>1,4>3")
    for name, value in (("n", 6), ("pairs", ((1, 1),))):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
    assert repr(p) == "PartialPerm(n=5, pairs=((2, 1), (4, 3)))"


def _surface_line(name: str) -> str:
    value = getattr(cycleiso, name)
    qualname = getattr(value, "__qualname__", None)
    if qualname is None:
        return f"{name} {value!r}"
    return f"{name} {value.__module__} {qualname}"


def test_package_surface_matches_pin():
    assert len(cycleiso.__all__) == len(set(cycleiso.__all__)) == 65
    listing = "".join(line + "\n" for line in sorted(map(_surface_line, cycleiso.__all__)))
    assert _sha(listing.encode()) == SURFACE_PIN


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from cycleiso import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cycleiso.__all__)
    assert all(namespace[name] is getattr(cycleiso, name) for name in namespace)


_SIZES = range(3, 7)
_ELEMENTS = [
    "n=3;2>3",
    "n=4;1>2,3>4",
    "n=4;1>2,2>1",
    "n=5;",
    "n=5;2>4",
    "n=5;1>2,2>3",
    "n=5;2>1,4>3,5>4",
    "n=5;1>5,2>4,3>3,4>2,5>1",
    "n=5;1>1,2>2,3>5",
    "n=6;1>4,4>1",
    "n=6;1>6,3>4",
    "n=6;1>2,4>5",
]
_CLI_ARGVS = (
    [["card", k, str(n), *e, *j] for k in KINDS for n in _SIZES
     for e in ([], ["--enumerate"]) for j in ([], ["--json"])]
    + [["rank", k, str(n), *c, *j] for k in KINDS for n in _SIZES
       for c in ([], ["--certify"]) for j in ([], ["--json"])]
    + [["gens", k, str(n), *j] for k in KINDS + ("di",) for n in _SIZES
       for j in ([], ["--json"])]
    + [["greens", k, str(n), "--relation", r, *j] for k in KINDS + ("di",)
       for n in _SIZES for r in "JLRH" for j in ([], ["--json"])]
    + [["enumerate", k, str(n), *f] for k in KINDS + ("di",) for n in _SIZES
       for f in ([], ["--format", "jsonl"], ["--out", "{out}/file"],
                 ["--out", "{out}/file", "--format", "jsonl", "--gzip", "--workers", "2"])]
    + [[c, e, *j] for c in ("classify", "extensions") for e in _ELEMENTS
       for j in ([], ["--json"])]
    + [["factorize", k, e, *j] for k in KINDS for e in _ELEMENTS
       for j in ([], ["--json"])]
    + [["verify", "--max-n", "7", *j] for j in ([], ["--json"])]
    # refusals: sizes below 3, a size too long to print, bad element text,
    # an unknown format, no workers, an unwritable path, argparse's own
    + [[c, "odi", "2", *j] for c in ("card", "rank", "gens", "greens", "enumerate")
       for j in ([], ["--json"]) if not (c == "enumerate" and j)]
    + [["card", "odi", "20000", *j] for j in ([], ["--json"])]
    + [[*c, e, *j] for c in (["classify"], ["extensions"], ["factorize", "odi"])
       for e in ("garbage", "n=5;1>2,1>3", "n=2;", "n=5;6>1") for j in ([], ["--json"])]
    + [
        ["enumerate", "odi", "4", "--format", "xml"],
        ["enumerate", "odi", "4", "--workers", "0"],
        ["enumerate", "odi", "4", "--out", "{out}/missing/file"],
        ["enumerate", "odi", "4", "--json"],
        ["verify", "--max-n", "2"],
        ["verify", "--max-n", "2", "--json"],
        ["card", "di", "4"],
        ["greens", "odi", "4", "--relation", "D"],
        [],
    ]
)

CLI_PIN = "c4fd863f5c29e1dfab56a74dc1d05a6c747de5663378f98001e324e348a74aa1"


def _cli_record(argv, out_dir, capsysbinary) -> str:
    argv = [arg.format(out=out_dir) for arg in argv]
    code = main(argv)
    stdout, stderr = capsysbinary.readouterr()
    stdout = re.sub(rb"\(\d+\.\d\ds\)", b"(T)", stdout)
    stdout = re.sub(rb'"seconds": [^,}]+', b'"seconds": T', stdout)
    if code == 2 and stderr.startswith(b"usage:"):
        stderr = b"usage"
    written = out_dir / "file"
    data = None
    if written.exists():
        data = written.read_bytes()
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        written.unlink()
    return f"{argv!r} {code} {stdout!r} {stderr!r} {data!r}\n".replace(str(out_dir), "{out}")


def test_cli_outputs_match_pin(tmp_path, capsysbinary):
    listing = "".join(_cli_record(argv, tmp_path, capsysbinary) for argv in _CLI_ARGVS)
    assert _sha(listing.encode()) == CLI_PIN


GREENS_CLI_PINS = {
    7: "e8fe2f1e0413ecb8992dce0ec28dec9b7732e5e99e5720aa9059ae980b507db2",
    8: "8568e8a2b23c3b077a4b09722beeb46134d455083dd7b4210c625d417c24c840",
    9: "475c0599e80fdfd03e3c74edf4445280e4ca52e0f212b6f634fed2976c1b24f1",
    10: "d2c41bcf77b313a22df70592900ab4d16861d087151b44172aed7977a88dfded",
    11: "a55bb13ca9580e12126caeea18958baee1fc1d835fa96aecdb24743a2b9985b7",
}


@pytest.mark.parametrize("n", sorted(GREENS_CLI_PINS))
def test_greens_outputs_past_the_cli_pin_sizes_match_pin(n, tmp_path, capsysbinary):
    argvs = [["greens", k, str(n), "--relation", r, *j] for k in KINDS + ("di",)
             for r in "JLRH" for j in ([], ["--json"])]
    listing = "".join(_cli_record(argv, tmp_path, capsysbinary) for argv in argvs)
    assert _sha(listing.encode()) == GREENS_CLI_PINS[n]
